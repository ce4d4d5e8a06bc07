//go:build race

package core

// raceEnabled reports a -race build. sync.Pool then drops items at random,
// so allocation budgets that rely on a warm pool do not hold.
const raceEnabled = true
