//go:build race

package core

// raceEnabled shrinks TestAssessMatchesReference's test sets: the reference
// it compares against runs the dense conv kernels once per accuracy test,
// ~12× slower under the race detector, and what the race run adds — workers
// sharing the network, the caches and the pruned weights — does not depend
// on how many examples flow through.
const raceEnabled = true
