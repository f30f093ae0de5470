// Package fixture exercises the nodeterminism analyzer: hits on wall-clock
// reads and global rand draws, non-hits on seeded generators and
// non-wall-clock time API.
package fixture

import (
	"math/rand"
	"time"
)

// Jitter draws from the global source and stamps wall-clock time — both
// forbidden in engine code.
func Jitter() (int, time.Time) {
	n := rand.Intn(10)                 // want `rand\.Intn uses the global, unseeded source`
	now := time.Now()                  // want `time\.Now reads the wall clock`
	_ = time.Since(now)                // want `time\.Since reads the wall clock`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle uses the global, unseeded source`
	return n, now
}

// SeededJitter is the approved pattern: an explicit, reproducible source.
func SeededJitter(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// ClockSeeded is the seeded mutation no test caught (faults.RandomPlan and
// experiments.MDCGracefulDegradation seeded this way still passed tier-1): a seeded
// generator whose seed is the wall clock.
func ClockSeeded(seed int64) int {
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // want `time\.Now reads the wall clock`
	return rng.Intn(int(seed))
}

// Timeout uses the time package without reading the clock — allowed.
func Timeout() time.Duration {
	return 3 * time.Second
}
