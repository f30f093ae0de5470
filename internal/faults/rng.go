package faults

// The fault coins are NOT a sequential PRNG: every probabilistic verdict is
// a pure hash of (plan seed, rule index, transmission coordinates). That
// makes a verdict independent of evaluation order, so any two interpreters
// of a plan (the slotsim engine and the test oracle, say) reach identical
// decisions, and a single rule's coin stream does not shift when another
// rule is added before it.

// splitmix64 is the finalizer of Vigna's SplitMix64 generator: a cheap,
// well-distributed 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the values into one hash, order-sensitively.
func mix(seed uint64, vals ...int64) uint64 {
	h := splitmix64(seed)
	for _, v := range vals {
		h = splitmix64(h ^ uint64(v))
	}
	return h
}

// uniform returns a deterministic value in [0, 1) from the seed and the
// coordinate tuple.
func uniform(seed uint64, vals ...int64) float64 {
	return float64(mix(seed, vals...)>>11) / (1 << 53)
}

// pick returns a deterministic index in [0, n) from the seed and tuple.
func pick(seed uint64, n int, vals ...int64) int {
	return int(mix(seed, vals...) % uint64(n))
}
