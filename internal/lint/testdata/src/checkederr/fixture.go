// Package fixture exercises the checkederr analyzer: statement calls that
// discard error results are hits; handled errors, the fmt print helpers, and
// never-failing Builder/Buffer writes are not.
package fixture

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
)

// Discards drops errors on the floor in every statement form.
func Discards(f *os.File, v interface{}) {
	json.Marshal(v)  // want `result of json\.Marshal contains an error that is discarded`
	f.Close()        // want `result of f\.Close contains an error that is discarded`
	defer f.Sync()   // want `result of f\.Sync contains an error that is discarded`
	go f.Truncate(0) // want `result of f\.Truncate contains an error that is discarded`
}

// Handled checks or assigns every error.
func Handled(f *os.File, v interface{}) error {
	if _, err := json.Marshal(v); err != nil {
		return err
	}
	return f.Close()
}

// Allowlisted uses the documented exceptions.
func Allowlisted(v interface{}) string {
	var b strings.Builder
	b.WriteString("x")
	fmt.Println(v)
	fmt.Fprintf(&b, "%v", v)
	return b.String()
}

// HashAndRand uses the contract-backed exceptions: hash.Hash.Write never
// returns an error, and (*rand.Rand).Read always returns a nil error.
func HashAndRand(h hash.Hash, rng *rand.Rand, buf []byte) uint64 {
	h.Write(buf)
	h64 := fnv.New64a()
	h64.Write(buf)
	rng.Read(buf)
	return h64.Sum64()
}

// Deliberate spells a discard out, so it is not a finding.
func Deliberate(f *os.File) {
	_ = f.Close()
}

// membership stands in for the churned multi-tree family, whose join
// returns an error only on a duplicate name.
type membership struct{ names map[string]bool }

func (m *membership) Add(name string) (int, error) {
	if m.names[name] {
		return 0, fmt.Errorf("duplicate %q", name)
	}
	m.names[name] = true
	return len(m.names), nil
}

// DroppedAdd is the seeded mutation no test caught (experiments.ChurnImpact
// calling dy.Add as a statement): a (value, error) result whose error only
// fires on input the tests never build.
func DroppedAdd(m *membership, i int) {
	m.Add(fmt.Sprintf("i-%d", i)) // want `result of m\.Add contains an error that is discarded`
}
