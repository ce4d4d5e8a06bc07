package lattice

import (
	"fmt"
	"math"

	"decentmon/internal/automaton"
	"decentmon/internal/dist"
	"decentmon/internal/stateset"
	"decentmon/internal/vclock"
)

// This file implements the paper's first future-work direction (§7.2.1,
// "Augmented Time", after Demirbas & Kulkarni's hybrid clocks): when the
// processes' physical clocks are synchronized within a known bound ε, two
// events are ordered not only by the happened-before relation but also
// whenever their timestamps differ by more than ε. The computation lattice
// then shrinks — the monitor has fewer possible interleavings to consider —
// degenerating to the single physical execution as ε → 0 and to the plain
// causal lattice as ε → ∞.

// EvaluateHybrid runs the oracle over the sub-lattice of cuts consistent
// with both causal order and ε-synchronized physical time: an event e may
// extend a cut only if no other process has a pending event f with
// f.Time + eps < e.Time (f must precede e in every timed-consistent path).
//
// Verdict sets are monotone in ε: Verdicts(ε1) ⊆ Verdicts(ε2) for ε1 ≤ ε2,
// and EvaluateHybrid(ts, mon, +Inf) equals Evaluate(ts, mon).
func EvaluateHybrid(ts *dist.TraceSet, mon *automaton.Monitor, eps float64) (*Result, error) {
	if err := checkProps(ts, mon); err != nil {
		return nil, err
	}
	if eps < 0 {
		return nil, fmt.Errorf("lattice: negative clock bound %v", eps)
	}
	n := ts.N()
	type node struct {
		cut    vclock.VC
		states stateset.Set
	}
	index := map[string]*node{}
	start := &node{cut: vclock.New(n), states: stateset.New(mon.NumStates())}
	q0 := mon.Step(mon.Initial(), ts.Props.Letter(ts.InitialState()))
	start.states.Add(q0)
	index[start.cut.Key()] = start

	// Finite ε explores a strict sub-lattice of the causal one, so the
	// verdicts are a sound subset of the causal-exact set (Complete only
	// when the timed pruning is disabled); Result.Complete refers to the
	// causal execution, the object every other oracle evaluates.
	res := &Result{Mode: ModeExact, Complete: math.IsInf(eps, 1), NumCuts: 1, FirstConclusiveRank: -1}
	if mon.Final(q0) {
		res.FirstConclusiveRank = 0
	}

	// timedOK reports whether advancing process i at the cut respects the
	// ε-ordering: no pending event elsewhere is forced to precede it.
	timedOK := func(cut vclock.VC, i int) bool {
		e := ts.Traces[i].Events[cut[i]]
		for j := 0; j < n; j++ {
			if j == i || cut[j] >= len(ts.Traces[j].Events) {
				continue
			}
			f := ts.Traces[j].Events[cut[j]]
			if f.Time+eps < e.Time {
				return false
			}
		}
		return true
	}

	queue := []*node{start}
	layerWidth := map[int]int{0: 1}
	final := ts.FinalCut()
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for i := 0; i < n; i++ {
			if nd.cut[i] >= len(ts.Traces[i].Events) {
				continue
			}
			next := nd.cut.Clone()
			next[i]++
			ev := ts.Traces[i].Events[next[i]-1]
			if !ev.VC.LessEq(next) {
				continue // causally inconsistent
			}
			if !timedOK(nd.cut, i) {
				continue // forbidden by ε-synchronized clocks
			}
			res.NumEdges++
			key := next.Key()
			succ, seen := index[key]
			if !seen {
				succ = &node{cut: next, states: stateset.New(mon.NumStates())}
				index[key] = succ
				queue = append(queue, succ)
				res.NumCuts++
				layerWidth[next.Sum()]++
			}
			letter := ts.Props.Letter(ts.StateAtCut(next))
			for st := 0; st < mon.NumStates(); st++ {
				if !nd.states.Has(st) {
					continue
				}
				nq := mon.Step(st, letter)
				succ.states.Add(nq)
				if mon.Final(nq) && (res.FirstConclusiveRank == -1 || next.Sum() < res.FirstConclusiveRank) {
					res.FirstConclusiveRank = next.Sum()
				}
			}
		}
	}
	for _, w := range layerWidth {
		if w > res.MaxWidth {
			res.MaxWidth = w
		}
	}
	fin, ok := index[final.Key()]
	if !ok {
		return nil, fmt.Errorf("lattice: final cut unreachable under eps=%v — timestamps violate causal order", eps)
	}
	seenV := map[automaton.Verdict]bool{}
	for st := 0; st < mon.NumStates(); st++ {
		if fin.states.Has(st) {
			res.FinalStates = append(res.FinalStates, st)
			v := mon.VerdictOf(st)
			if !seenV[v] {
				seenV[v] = true
				res.Verdicts = append(res.Verdicts, v)
			}
		}
	}
	return res, nil
}

// Inf is a convenience ε that disables timed pruning.
var Inf = math.Inf(1)
