package lattice

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/stateset"
	"decentmon/internal/vclock"
)

// This file is the pluggable oracle subsystem: three implementations of the
// ground-truth verdict-set computation with different tractability/precision
// trade-offs, selected by Mode.
//
//   - ModeExact: the Chapter-3 layered DP over the full consistent-cut
//     lattice. Exact and complete, but the lattice has up to ∏(mᵢ+1) cuts —
//     tractable only to ~5 processes on the case-study workloads.
//   - ModeSliced: the same DP over the lattice *projected onto the
//     property's support processes* (the owners of the propositions the
//     formula mentions). Events of other processes cannot change the letters
//     the monitor distinguishes, so for ○-free (stutter-invariant) LTL the
//     projected verdict set equals the exact one, at the cost of a
//     |support|-process oracle regardless of the system size. This covers
//     all six case-study properties whenever they are instantiated at an
//     arity smaller than the system (props.BuildAt), which is how n ≥ 8
//     decentralized runs are cross-checked.
//   - ModeSampling: a seeded, rank-synchronous frontier exploration that
//     keeps at most MaxFrontier cuts per rank layer. Every surviving
//     (cut, state) pair is reachable in the real lattice, so the sampled
//     verdict set is a *sound subset* of the exact one (Result.Complete is
//     false): it can prove that a decentralized run's verdicts are
//     plausible, and any sampled verdict missing from the run witnesses an
//     incompleteness — but absence from the sample proves nothing.

// Mode selects the oracle implementation.
type Mode int

const (
	// ModeExact is the full-lattice dynamic program (exact verdict set).
	ModeExact Mode = iota
	// ModeSliced projects the lattice onto the property's support
	// processes (exact verdict set for ○-free properties).
	ModeSliced
	// ModeSampling explores a seeded bounded frontier (sound subset).
	ModeSampling
)

// Modes lists the oracle modes in definition order.
var Modes = []Mode{ModeExact, ModeSliced, ModeSampling}

func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeSliced:
		return "sliced"
	case ModeSampling:
		return "sampling"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses an oracle mode name ("exact", "sliced", "sampling").
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if s == m.String() {
			return m, nil
		}
	}
	names := make([]string, len(Modes))
	for i, m := range Modes {
		names[i] = m.String()
	}
	return 0, fmt.Errorf("lattice: unknown oracle mode %q (want %s)", s, strings.Join(names, ", "))
}

// DefaultMaxFrontier is the sampling oracle's per-rank cut budget when
// OracleConfig.MaxFrontier is zero.
const DefaultMaxFrontier = 2048

// OracleConfig selects and tunes an oracle.
type OracleConfig struct {
	// Mode selects the implementation (default ModeExact).
	Mode Mode
	// MaxFrontier bounds the sampling oracle's per-rank frontier
	// (default DefaultMaxFrontier; ignored by the other modes).
	MaxFrontier int
	// Seed seeds the sampling oracle's frontier thinning; equal seeds give
	// identical explorations (ignored by the other modes).
	Seed int64
}

// EvaluateOracle runs the configured oracle over the complete execution.
func EvaluateOracle(ts *dist.TraceSet, mon *automaton.Monitor, cfg OracleConfig) (*Result, error) {
	switch cfg.Mode {
	case ModeExact:
		return Evaluate(ts, mon)
	case ModeSliced:
		return EvaluateSliced(ts, mon)
	case ModeSampling:
		return EvaluateSampled(ts, mon, cfg.MaxFrontier, cfg.Seed)
	}
	return nil, fmt.Errorf("lattice: unknown oracle mode %d", int(cfg.Mode))
}

// SupportProcesses returns the sorted set of processes owning a proposition
// that the monitored formula mentions. Processes outside the support cannot
// influence the letters the monitor distinguishes.
func SupportProcesses(pm *dist.PropMap, mon *automaton.Monitor) ([]int, error) {
	if mon.Formula == nil {
		return nil, fmt.Errorf("lattice: monitor carries no formula; support is undetermined")
	}
	owner := make(map[string]int, pm.Len())
	for i, name := range pm.Names {
		owner[name] = pm.Owner[i]
	}
	seen := map[int]bool{}
	var procs []int
	for _, name := range mon.Formula.Props() {
		o, ok := owner[name]
		if !ok {
			return nil, fmt.Errorf("lattice: formula proposition %q not in the trace proposition space", name)
		}
		if !seen[o] {
			seen[o] = true
			procs = append(procs, o)
		}
	}
	sort.Ints(procs)
	return procs, nil
}

// EvaluateSliced runs the oracle over the lattice projected onto the
// property's support processes. The verdict set equals Evaluate's whenever
// the property is ○-free: events of non-support processes only stutter the
// letters the monitor distinguishes, and ○-free LTL is stutter-invariant.
// Formulas containing ○ are rejected rather than answered unsoundly.
//
// Result.NumCuts/NumEdges/MaxWidth describe the *projected* lattice and
// FirstConclusiveRank counts support-process events only.
func EvaluateSliced(ts *dist.TraceSet, mon *automaton.Monitor) (*Result, error) {
	if err := checkProps(ts, mon); err != nil {
		return nil, err
	}
	procs, err := SupportProcesses(ts.Props, mon)
	if err != nil {
		return nil, err
	}
	if mon.Formula.HasNext() {
		return nil, fmt.Errorf("lattice: sliced oracle needs a ○-free (stutter-invariant) property, got %s", mon.Formula)
	}
	res, err := evalProjected(ts, mon, procs)
	if err != nil {
		return nil, err
	}
	res.Mode, res.Complete, res.SupportProcs = ModeSliced, true, procs
	return res, nil
}

// EvaluateSampled explores a seeded, bounded frontier of the computation
// lattice: a rank-synchronous BFS that keeps at most maxFrontier consistent
// cuts per rank layer, thinning uniformly at random (seeded) beyond that.
// Every surviving (cut, automaton state) pair is reachable in the true
// lattice, so the returned verdict set is a sound subset of the exact one
// (Result.Complete is false). maxFrontier <= 0 selects DefaultMaxFrontier.
//
// The frontier never empties — every non-final consistent cut has at least
// one enabled event — so the final cut is always reached and at least one
// verdict is always returned.
func EvaluateSampled(ts *dist.TraceSet, mon *automaton.Monitor, maxFrontier int, seed int64) (*Result, error) {
	if err := checkProps(ts, mon); err != nil {
		return nil, err
	}
	if maxFrontier <= 0 {
		maxFrontier = DefaultMaxFrontier
	}
	rng := rand.New(rand.NewSource(seed))
	n := ts.N()
	type node struct {
		cut    vclock.VC
		states stateset.Set
	}
	start := &node{cut: vclock.New(n), states: stateset.New(mon.NumStates())}
	q0 := mon.Step(mon.Initial(), ts.Props.Letter(ts.InitialState()))
	start.states.Add(q0)

	res := &Result{Mode: ModeSampling, NumCuts: 1, MaxWidth: 1, FirstConclusiveRank: -1}
	if mon.Final(q0) {
		res.FirstConclusiveRank = 0
	}

	frontier := map[string]*node{start.cut.Key(): start}
	total := ts.TotalEvents()
	for rank := 1; rank <= total; rank++ {
		// Deterministic expansion order: map iteration is randomized by the
		// runtime, so walk the keys sorted before consulting the seeded rng.
		keys := make([]string, 0, len(frontier))
		for k := range frontier {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		next := map[string]*node{}
		for _, k := range keys {
			nd := frontier[k]
			for i := 0; i < n; i++ {
				if nd.cut[i] >= len(ts.Traces[i].Events) {
					continue
				}
				succCut := nd.cut.Clone()
				succCut[i]++
				ev := ts.Traces[i].Events[succCut[i]-1]
				if !ev.VC.LessEq(succCut) {
					continue
				}
				res.NumEdges++
				key := succCut.Key()
				succ, seen := next[key]
				if !seen {
					succ = &node{cut: succCut, states: stateset.New(mon.NumStates())}
					next[key] = succ
				}
				letter := ts.Props.Letter(ts.StateAtCut(succCut))
				for st := 0; st < mon.NumStates(); st++ {
					if !nd.states.Has(st) {
						continue
					}
					nq := mon.Step(st, letter)
					succ.states.Add(nq)
					if mon.Final(nq) && (res.FirstConclusiveRank == -1 || rank < res.FirstConclusiveRank) {
						res.FirstConclusiveRank = rank
					}
				}
			}
		}
		if len(next) > maxFrontier {
			nkeys := make([]string, 0, len(next))
			for k := range next {
				nkeys = append(nkeys, k)
			}
			sort.Strings(nkeys)
			thinned := map[string]*node{}
			for _, idx := range rng.Perm(len(nkeys))[:maxFrontier] {
				thinned[nkeys[idx]] = next[nkeys[idx]]
			}
			next = thinned
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("lattice: frontier died at rank %d — trace set inconsistent", rank)
		}
		frontier = next
		res.NumCuts += len(next)
		if len(next) > res.MaxWidth {
			res.MaxWidth = len(next)
		}
	}
	final := ts.FinalCut()
	fin, ok := frontier[final.Key()]
	if !ok {
		return nil, fmt.Errorf("lattice: final cut %v unreachable — trace set inconsistent", final)
	}
	res.FinalStates, res.Verdicts = collectVerdicts(mon, fin.states)
	return res, nil
}
