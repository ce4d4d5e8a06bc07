package core

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"decentmon/internal/automaton"
	"decentmon/internal/stateset"
	"decentmon/internal/vclock"
)

// boxResult is the outcome of exploring the lattice region between two cuts.
type boxResult struct {
	// finalStates are the automaton states reachable at the upper cut.
	finalStates []int
	// pivots are the (state, cut) pairs at which an outgoing transition
	// fired strictly inside the box (the "pivot global states" of §4.5.2);
	// the monitor forks a global view at each. The sliced sweep leaves it
	// empty when its caller asked for no pivots.
	pivots []pivot
	// conclusive are the conclusive states hit anywhere in the box, with
	// the first cut each was discovered at.
	conclusive []pivot
	// nodes is the number of consistent cuts visited (projected cuts under
	// slicing — the quantity MaxBoxNodes bounds either way).
	nodes int
}

type pivot struct {
	q   int
	cut vclock.VC
}

// exploreBox explores the consistent cuts D with lo ≤ D ≤ hi, starting from
// the automaton states init at lo. The monitor's knowledge must cover every
// event in (lo, hi]. Two strategies share this entry point:
//
//   - support == nil: the exact full-width state-set DP (exploreBoxExact) —
//     the same layered DP as the Chapter-3 oracle, restricted to the box.
//   - support != nil: the sliced rank-synchronous sweep (exploreBoxSliced) —
//     the region is projected onto the property's support processes before
//     sweeping, which is verdict-exact for ○-free (stutter-invariant)
//     properties; the monitor computes the support slice once in New and
//     passes nil whenever the exact DP is required (○ in the formula, no
//     formula attached, support spanning every process, or Config.ExactBoxes).
//
// maxNodes bounds the exploration; exceeding it returns an error (the
// monitor surfaces it — under slicing the bound counts projected nodes, so
// workloads whose full-width region explodes stay far below it).
//
// pivots says whether the caller consumes boxResult.pivots: finalization
// does not, and the sliced sweep then skips the pivot bookkeeping (the exact
// DP always records them).
func exploreBox(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset.Set, lo, hi vclock.VC, maxNodes int, support []int, pivots bool) (*boxResult, error) {
	for p := 0; p < know.n; p++ {
		if lo[p] > hi[p] {
			return nil, fmt.Errorf("core: box lower bound %v above upper %v", lo, hi)
		}
		if hi[p] > know.len(p) {
			return nil, fmt.Errorf("core: box upper bound %v not covered by knowledge (process %d has %d events)", hi, p, know.len(p))
		}
	}
	if support == nil {
		return exploreBoxExact(mon, know, lt, init, lo, hi, maxNodes)
	}
	return exploreBoxSliced(mon, know, lt, init, lo, hi, maxNodes, support, pivots)
}

// exploreBoxExact runs the exact state-set dynamic program over every
// consistent cut of the box. It is how a monitor turns the event segments
// gathered by a token into *verified* lattice paths (soundness) while still
// only ever expanding regions that can change the automaton state.
//
// Each node caches the letter at its cut, maintained incrementally through
// the letterTable (one edge changes one process's bits), so the explorer
// never materializes a GlobalState per node; map lookups go through a scratch
// key buffer (m[string(buf)] compiles to an allocation-free lookup), so only
// node *insertion* allocates.
func exploreBoxExact(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset.Set, lo, hi vclock.VC, maxNodes int) (*boxResult, error) {
	n := know.n
	type node struct {
		cut    vclock.VC
		states stateset.Set
		letter uint32
	}
	nStates := mon.NumStates()
	index := map[string]*node{}
	start := &node{cut: lo.Clone(), states: stateset.New(nStates), letter: lt.letter(know.stateAt(lo))}
	copy(start.states, init)
	index[string(lo.AppendKey(nil))] = start
	queue := []*node{start}

	res := &boxResult{nodes: 1}
	seenConcl := map[int]bool{}
	seenPivot := map[string]bool{}
	init.ForEach(func(q int) {
		if mon.Final(q) {
			seenConcl[q] = true
		}
	})

	var keyBuf, pivotBuf []byte
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for p := 0; p < n; p++ {
			if nd.cut[p] >= hi[p] {
				continue
			}
			if !know.consistentStep(nd.cut, p) {
				continue
			}
			nd.cut[p]++ // borrow the cut for the key probe; restored below
			keyBuf = nd.cut.AppendKey(keyBuf[:0])
			succ, ok := index[string(keyBuf)]
			if !ok {
				succ = &node{
					cut:    nd.cut.Clone(),
					states: stateset.New(nStates),
					letter: lt.update(nd.letter, p, know.state(p, nd.cut[p])),
				}
				index[string(keyBuf)] = succ
				queue = append(queue, succ)
				res.nodes++
				if res.nodes > maxNodes {
					nd.cut[p]--
					return nil, fmt.Errorf("core: box exploration exceeded %d nodes between %v and %v", maxNodes, lo, hi)
				}
			}
			nd.cut[p]--
			letter := succ.letter
			for w, word := range nd.states {
				for word != 0 {
					st := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					nq := mon.Step(st, letter)
					succ.states.Add(nq)
					if nq != st {
						// An outgoing transition fired: a pivot global state.
						pivotBuf = strconv.AppendInt(pivotBuf[:0], int64(nq), 10)
						pivotBuf = append(pivotBuf, '|')
						pivotBuf = succ.cut.AppendKey(pivotBuf)
						if !seenPivot[string(pivotBuf)] {
							seenPivot[string(pivotBuf)] = true
							res.pivots = append(res.pivots, pivot{q: nq, cut: succ.cut.Clone()})
						}
						if mon.Final(nq) && !seenConcl[nq] {
							seenConcl[nq] = true
							res.conclusive = append(res.conclusive, pivot{q: nq, cut: succ.cut.Clone()})
						}
					}
				}
			}
		}
	}
	top, ok := index[string(hi.AppendKey(keyBuf[:0]))]
	if !ok {
		return nil, fmt.Errorf("core: box upper cut %v unreachable from %v", hi, lo)
	}
	top.states.ForEach(func(st int) {
		res.finalStates = append(res.finalStates, st)
	})
	return res, nil
}

// exploreBoxSliced is the support-sliced, rank-synchronous frontier sweep.
//
// Slicing: only support processes own propositions the formula reads, so a
// non-support process's events never change the formula-relevant bits of the
// letter — stepping through them stutters the same letter, and for a ○-free
// (stutter-invariant) property LTL3 verdicts are invariant under stuttering.
// The sweep therefore walks only the *projected* region: cuts advance on
// support events alone, and a projected step is consistent iff the event's
// vector clock is covered on the support components (clock transitivity
// routes causality through projected-away processes, so checking support
// components suffices — knowledge.projectedStep). An arity-k property over an
// n-process broadcast explores a k-dimensional region instead of an
// n-dimensional one, which is what makes dense-broadcast workloads tractable.
//
// Lift cuts: each projected node carries the full-width *lift* of its
// projected cut — lo joined with the vector clocks of every included support
// event. The lift is the least consistent full cut containing exactly those
// support events; it is determined by the projected cut alone (so merging
// paths agree on it), sits inside [lo, hi], and is ≥ lo pointwise, so pivot
// cuts handed back to the monitor respect the knowledge-GC need-floor and
// round-trip against full-width clocks. Its support components are the
// projected cut itself, which is what the frontier index keys on.
//
// Antichain + rank synchrony: the sweep keeps one frontier per rank (rank =
// number of included support events), indexed by projected cut. A path whose
// stateset is a subset of another's at the same projected cut is subsumed by
// the union-merge and never re-expanded, and conclusive states — absorbing by
// construction — are pulled out of the frontier into one accumulated set and
// OR-ed back into the final states at the top. Memory is O(two ranks of
// frontier width) instead of the full region map, and it is recycled: the
// two ranks live in pooled flat storage, so a sweep allocates nothing per
// node — only the cuts it returns are cloned out.
func exploreBoxSliced(mon *automaton.Monitor, know *knowledge, lt *letterTable, init stateset.Set, lo, hi vclock.VC, maxNodes int, support []int, pivots bool) (*boxResult, error) {
	fr := frontierPool.Get().(*sweepFrontiers)
	defer frontierPool.Put(fr)
	nStates := mon.NumStates()
	res := &boxResult{nodes: 1}
	concl := stateset.New(nStates)     // conclusive states absorbed out of the frontier
	seenConcl := stateset.New(nStates) // conclusive states already reported

	cur, next := &fr[0], &fr[1]
	cur.reset(know.n, len(concl), 1)
	_, slot := cur.find(lo, -1, support)
	start := cur.add(slot, lo, -1, nil, lt.letter(know.stateAt(lo)))
	startStates := cur.set(start)
	init.ForEach(func(q int) {
		if mon.Final(q) {
			// Absorbing: keep out of the frontier (never re-reported, like the
			// exact DP's seenConcl seed) but present in the final states.
			seenConcl.Add(q)
			concl.Add(q)
			return
		}
		startStates.Add(q)
	})

	ranks := 0
	for _, j := range support {
		ranks += hi[j] - lo[j]
	}
	// Node order within a rank is discovery order, which keeps discovery
	// cuts deterministic (the exact DP's FIFO queue is rank-synchronous too).
	for r := 0; r < ranks; r++ {
		// A rank holds at most one successor per (node, support process)
		// pair, and never more nodes than the budget has left.
		next.reset(know.n, len(concl), min(cur.size()*len(support), maxNodes-res.nodes+1))
		for i := 0; i < cur.size(); i++ {
			cut, states, letter := cur.lift(i), cur.set(i), cur.letters[i]
			for _, p := range support {
				if cut[p] >= hi[p] {
					continue
				}
				if !know.projectedStep(cut, p, support) {
					continue
				}
				e := know.event(p, cut[p]+1)
				s, slot := next.find(cut, p, support)
				if s < 0 {
					// The lift bumps p and joins the event's clock; support
					// components are already covered (projectedStep), so
					// the join only ever advances non-support components.
					s = next.add(slot, cut, p, e.VC, lt.update(letter, p, e.State))
					res.nodes++
					if res.nodes > maxNodes {
						return nil, fmt.Errorf("core: box exploration exceeded %d nodes between %v and %v", maxNodes, lo, hi)
					}
				}
				succ, succCut, pivoted, succLetter := next.set(s), next.lift(s), next.pivoted(s), next.letters[s]
				for w, word := range states {
					for word != 0 {
						st := w*64 + bits.TrailingZeros64(word)
						word &= word - 1
						nq := mon.Step(st, succLetter)
						if nq != st {
							if pivots && !pivoted.Has(nq) {
								pivoted.Add(nq)
								res.pivots = append(res.pivots, pivot{q: nq, cut: succCut.Clone()})
							}
							if mon.Final(nq) {
								if !seenConcl.Has(nq) {
									seenConcl.Add(nq)
									res.conclusive = append(res.conclusive, pivot{q: nq, cut: succCut.Clone()})
								}
								concl.Add(nq)
								continue
							}
						}
						succ.Add(nq)
					}
				}
			}
		}
		cur, next = next, cur
	}
	top, _ := cur.find(hi, -1, support)
	if top < 0 {
		return nil, fmt.Errorf("core: box upper cut %v unreachable from %v", hi, lo)
	}
	fin := cur.set(top) // scratch: the frontier is discarded after the sweep
	fin.Or(concl)
	fin.ForEach(func(st int) {
		res.finalStates = append(res.finalStates, st)
	})
	return res, nil
}

// sweepFrontiers is the sliced sweep's storage: two ranks of frontier used
// ping-pong style. A sweep holds one exclusively from frontierPool.Get to
// Put; it is scratch only, never part of monitor state or a snapshot.
type sweepFrontiers [2]sweepFrontier

// frontierPool recycles frontier storage across sweeps, monitors and
// sessions. Per-monitor storage would not amortize: a monitor lives for one
// session and sweeps only a few times in it (finalization sweeps each live
// view once), so its slabs would be regrown from empty every session.
var frontierPool = sync.Pool{New: func() any { return new(sweepFrontiers) }}

// sweepFrontier is one rank of the sliced sweep, stored flat. Node i's lift
// cut is lifts[i*n:(i+1)*n], its state set states[i*w:(i+1)*w], the states
// already reported as pivots at its cut pivots[i*w:(i+1)*w] (the (state,
// cut) dedup, since a rank holds each cut once and ranks never share cuts),
// and its letter letters[i]. slots is an open-addressing hash index over the
// nodes (node+1 per occupied slot, 0 when empty), keyed by the support
// components of the lift and resolved by comparing those components in the
// slab, so it works for any support width and extent.
type sweepFrontier struct {
	n, w    int
	lifts   []int
	states  []uint64
	pivots  []uint64
	letters []uint32
	slots   []int32
	shift   uint // 64 - log2(len(slots)): the index takes a hash's top bits
}

// reset empties the frontier for n-wide cuts and w-word state sets, sizing
// the index for up to capHint nodes at a load factor of at most 1/2.
func (f *sweepFrontier) reset(n, w, capHint int) {
	f.n, f.w = n, w
	f.lifts, f.states, f.pivots, f.letters = f.lifts[:0], f.states[:0], f.pivots[:0], f.letters[:0]
	size, shift := 8, uint(61)
	for size < 2*capHint {
		size <<= 1
		shift--
	}
	if cap(f.slots) < size {
		f.slots = make([]int32, size)
	} else {
		f.slots = f.slots[:size]
		clear(f.slots)
	}
	f.shift = shift
}

func (f *sweepFrontier) size() int { return len(f.letters) }

func (f *sweepFrontier) lift(i int) vclock.VC { return f.lifts[i*f.n : (i+1)*f.n : (i+1)*f.n] }

func (f *sweepFrontier) set(i int) stateset.Set { return f.states[i*f.w : (i+1)*f.w : (i+1)*f.w] }

func (f *sweepFrontier) pivoted(i int) stateset.Set { return f.pivots[i*f.w : (i+1)*f.w : (i+1)*f.w] }

// find looks up the node whose support components equal cut's, with
// component bump read one higher (bump < 0: none). It returns the node, or
// -1 and the empty slot where add should index it.
func (f *sweepFrontier) find(cut vclock.VC, bump int, support []int) (node, slot int) {
	var h uint64
	for _, j := range support {
		v := cut[j]
		if j == bump {
			v++
		}
		h = (h + uint64(v)) * 0x9e3779b97f4a7c15
	}
	mask := len(f.slots) - 1
	for s := int(h >> f.shift); ; s = (s + 1) & mask {
		idx := int(f.slots[s]) - 1
		if idx < 0 {
			return -1, s
		}
		lift := f.lift(idx)
		match := true
		for _, j := range support {
			v := cut[j]
			if j == bump {
				v++
			}
			if lift[j] != v {
				match = false
				break
			}
		}
		if match {
			return idx, s
		}
	}
}

// add appends a node with an empty state set whose lift is base with
// component bump advanced (bump < 0: none) and joined with vc (nil: none),
// indexes it at slot, and returns it.
func (f *sweepFrontier) add(slot int, base vclock.VC, bump int, vc vclock.VC, letter uint32) int {
	i := f.size()
	f.lifts = append(f.lifts, base...)
	lift := f.lift(i)
	if bump >= 0 {
		lift[bump]++
	}
	for j, v := range vc {
		if v > lift[j] {
			lift[j] = v
		}
	}
	f.states = append(f.states, make([]uint64, f.w)...)
	f.pivots = append(f.pivots, make([]uint64, f.w)...)
	f.letters = append(f.letters, letter)
	f.slots[slot] = int32(i + 1)
	return i
}
