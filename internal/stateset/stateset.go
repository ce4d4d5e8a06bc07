// Package stateset is the bitset over automaton states shared by the
// engine's box explorers, the lattice oracles and the centralized baseline:
// one bit per state, 64 states per word.
package stateset

import "math/bits"

// Set is a bitset over automaton states.
type Set []uint64

// New returns an empty set sized for n states.
func New(n int) Set { return make(Set, (n+63)/64) }

// Add inserts state i.
func (s Set) Add(i int) { s[i/64] |= 1 << (i % 64) }

// Has reports whether state i is a member.
func (s Set) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Clear zeroes the set in place (scratch reuse on hot paths).
func (s Set) Clear() { clear(s) }

// ForEach calls fn for every member state, ascending, without allocating.
func (s Set) ForEach(fn func(q int)) {
	for w, word := range s {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Members lists the member states below n, ascending (cold paths; hot paths
// iterate with ForEach or inline word scans instead).
func (s Set) Members(n int) []int {
	var out []int
	s.ForEach(func(q int) {
		if q < n {
			out = append(out, q)
		}
	})
	return out
}

// Or unions t into s and reports whether s changed.
func (s Set) Or(t Set) bool {
	changed := false
	for w := range s {
		nv := s[w] | t[w]
		if nv != s[w] {
			s[w] = nv
			changed = true
		}
	}
	return changed
}

// Empty reports whether no state is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}
