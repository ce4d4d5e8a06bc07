package main

import (
	"fmt"
	"io"
	"maps"
	"time"

	"decentmon"
	"decentmon/internal/dist"
)

// workload is one input set the benchmark runs. Every trace is generated
// at set-up from the seed; the program only ever sees the generated events.
type workload struct {
	name string
	// daemon workloads drive an in-process dlmond over loopback through the
	// server client; the others drive decentmon.Session directly.
	daemon bool
	// durable runs the daemon with a state directory (checkpointing on).
	durable bool
	// invariant workloads monitor a property whose verdict must be {?};
	// with no conclusive verdict to time, their verdict latency is that of
	// the first terminal (finalization) verdict of each session.
	invariant bool
	// conns is the number of daemon connections, each driving its own
	// sessions; it is capped at the machine's CPU count. In-process
	// workloads have one feeder.
	conns int
	// poolSize is the number of seeded traces sessions cycle through.
	poolSize int
	// encoded keeps the pool as ".dmtb" records, decoded while feeding as
	// dlmon -stream decodes its input: a pool of long traces large enough
	// to average out per-trace cost would not fit in memory decoded.
	encoded bool
	formula string
	props   *decentmon.PropMap
	gen     func(seed int64, warm bool) decentmon.GenConfig
}

// invariantFormula holds on every cut of the invariant traces: P2.q starts
// true and every internal event keeps it true, so the verdict set is {?}.
const invariantFormula = "G (P0.p || P1.p || P2.q)"

var workloads = []*workload{
	{
		name: "paper-ring16", poolSize: 64,
		formula: mustCaseStudy("B", 3), props: decentmon.PerProcessProps(3, "p"),
		gen: func(seed int64, _ bool) decentmon.GenConfig {
			return decentmon.GenConfig{N: 16, InternalPerProc: 4, CommMu: 6, CommSigma: 1,
				Topology: decentmon.TopoRing, PlantGoal: true, Seed: seed,
				TrueProbs: map[string]float64{"p": 0.9, "q": 0.8}}
		},
	},
	{
		name: "stream-ring16", invariant: true, poolSize: 32, encoded: true,
		formula: invariantFormula, props: decentmon.PerProcessProps(3, "p", "q"),
		gen: func(seed int64, warm bool) decentmon.GenConfig {
			return invariantGen(16, 1000, seed, warm)
		},
	},
	{
		name: "dlmond-short", daemon: true, conns: 2, poolSize: 128,
		formula: mustCaseStudy("B", 3), props: decentmon.PerProcessProps(3, "p"),
		gen: func(seed int64, _ bool) decentmon.GenConfig {
			return decentmon.GenConfig{N: 3, InternalPerProc: 2, CommMu: 3, CommSigma: 1,
				Topology: decentmon.TopoRing, PlantGoal: true, Seed: seed}
		},
	},
	{
		name: "dlmond-durable", daemon: true, durable: true, invariant: true, conns: 2, poolSize: 32,
		formula: invariantFormula, props: decentmon.PerProcessProps(3, "p", "q"),
		gen: func(seed int64, warm bool) decentmon.GenConfig {
			return invariantGen(8, 500, seed, warm)
		},
	},
}

// invariantGen is the long-stream regime: p flips at random, q is held
// true. The warm-up session replays a short trace of the same shape.
func invariantGen(n, internal int, seed int64, warm bool) decentmon.GenConfig {
	if warm {
		internal = 20
	}
	return decentmon.GenConfig{N: n, InternalPerProc: internal, CommMu: 6, CommSigma: 1,
		Topology: decentmon.TopoRing, Seed: seed, InitTrue: []string{"q"},
		TrueProbs: map[string]float64{"p": 0.5, "q": 1}}
}

func mustCaseStudy(name string, n int) string {
	f, err := decentmon.CaseStudyProperty(name, n)
	if err != nil {
		panic(err)
	}
	return f
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// item is one generated trace with its reference verdict set.
type item struct {
	n      int
	init   decentmon.GlobalState
	props  *decentmon.PropMap
	events []*decentmon.Event // stream (timestamp) order; nil when encoded
	recs   []byte             // encoded: event i is recs[ends[i-1]:ends[i]]
	ends   []int
	off    []int // off[p] indexes process p's first event in a flat per-event array
	want   map[decentmon.Verdict]bool
}

func (it *item) len() int { return max(len(it.events), len(it.ends)) }

// event returns event i, decoding it when the item is encoded.
func (it *item) event(i int) (*decentmon.Event, error) {
	if it.events != nil {
		return it.events[i], nil
	}
	start := 0
	if i > 0 {
		start = it.ends[i-1]
	}
	return dist.DecodeEventRecord(it.recs[start:it.ends[i]], it.n)
}

// encode replaces the events by their records.
func (it *item) encode() error {
	for _, e := range it.events {
		var err error
		if it.recs, err = dist.AppendEventRecord(it.recs, e); err != nil {
			return err
		}
		it.ends = append(it.ends, len(it.recs))
	}
	it.events = nil
	return nil
}

// eventList returns every event, decoding an encoded item.
func (it *item) eventList() ([]*decentmon.Event, error) {
	if it.events != nil {
		return it.events, nil
	}
	out := make([]*decentmon.Event, it.len())
	for i := range out {
		var err error
		if out[i], err = it.event(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// key is the flat index of an event, or of the last event of process p
// included in a cut that holds sn events of p.
func (it *item) key(p, sn int) int { return it.off[p] + sn - 1 }

// fixture is everything derived from the seed before set-up: the pool,
// the warm-up trace and the reference verdicts. None of it is timed in
// setup_s.
type fixture struct {
	seed int64
	pool []*item
	warm *item
}

// buildFixture generates the pool and the warm-up trace and computes their
// reference verdicts; tr (nil when untraced) records the oracle's spans.
func buildFixture(w *workload, seed int64, tr *tracer) (*fixture, error) {
	spec, err := decentmon.Compile(w.formula, w.props)
	if err != nil {
		return nil, err
	}
	fx := &fixture{seed: seed}
	for i := 0; i <= w.poolSize; i++ {
		warm := i == w.poolSize
		ts, err := decentmon.Generate(w.gen(seed*1000+int64(i), warm)).WithProps(w.props)
		if err != nil {
			return nil, err
		}
		it, err := newItem(ts)
		if err != nil {
			return nil, err
		}
		if err := reference(w, spec, ts, it, warm, tr); err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
		if w.encoded && !warm {
			if err := it.encode(); err != nil {
				return nil, err
			}
		}
		if warm {
			fx.warm = it
		} else {
			fx.pool = append(fx.pool, it)
		}
	}
	return fx, nil
}

func newItem(ts *decentmon.TraceSet) (*item, error) {
	it := &item{n: ts.N(), init: ts.InitialState(), props: ts.Props, off: make([]int, ts.N())}
	total := 0
	for p, tr := range ts.Traces {
		it.off[p] = total
		total += len(tr.Events)
	}
	src := ts.Stream()
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		it.events = append(it.events, e)
	}
	if len(it.events) != total {
		return nil, fmt.Errorf("stream yielded %d of %d events", len(it.events), total)
	}
	return it, nil
}

// reference sets the verdict set a session over it must report. The
// reachability workloads take the sliced oracle's exact set. The invariant
// workloads must report {?}; each trace's single-path RunBounded verdict
// must be a member, and the warm-up trace (small enough for the lattice)
// is also checked against the sliced oracle.
func reference(w *workload, spec *decentmon.Spec, ts *decentmon.TraceSet, it *item, warm bool, tr *tracer) error {
	if w.invariant {
		it.want = map[decentmon.Verdict]bool{decentmon.Unknown: true}
		pr, err := decentmon.RunBounded(spec, ts.Stream())
		if err != nil {
			return err
		}
		if !it.want[pr.Verdict] {
			return fmt.Errorf("path verdict %v outside {?}", pr.Verdict)
		}
		if !warm {
			return nil
		}
	}
	start := time.Now()
	res, err := decentmon.EvaluateOracle(spec, ts, decentmon.OracleConfig{Mode: decentmon.OracleSliced})
	if err != nil {
		return err
	}
	tr.record(spanLatticeOracle, 0, start, time.Now())
	if !res.Complete {
		return fmt.Errorf("oracle verdict set is not exact")
	}
	want := map[decentmon.Verdict]bool{}
	for _, v := range res.Verdicts {
		want[v] = true
	}
	if it.want != nil && !maps.Equal(it.want, want) {
		return fmt.Errorf("oracle verdicts %v differ from the expected %v", want, it.want)
	}
	it.want = want
	return nil
}

// wrongVerdict returns a verdict outside the reference set's reach: ⊥ for
// the reachability and invariant properties, whose sets never hold it.
func wrongVerdict(want map[decentmon.Verdict]bool) decentmon.Verdict {
	if want[decentmon.Bottom] {
		return decentmon.Top
	}
	return decentmon.Bottom
}
