package check

import (
	"fmt"

	"streamcast/internal/core"
)

// Compiled-window issue kinds. Shape findings mean the snapshot arrays are
// structurally unusable; mismatch findings mean the three views of the
// schedule — flat window, compiler slot generation, source scheme — do not
// agree on some slot.
const (
	KindWindowShape    = "compiled window malformed"
	KindWindowMismatch = "compiler disagrees with window"
	KindSourceMismatch = "window disagrees with source schedule"
)

// VerifyCompiled symbolically verifies a compiled schedule against the flat
// transmission window itself. Where Static trusts Transmissions() as the
// schedule oracle, VerifyCompiled re-derives every slot directly from the
// snapshot arrays returned by Window() — warmup segments verbatim, steady
// segments normalized through the live per-residue Shift() — and proves the
// same hold/capacity/disjointness/bound properties over that reconstruction.
// It then asserts three-way agreement over the compiler's own verification
// horizon (warmup plus two periods): the window reconstruction must match
// both what CompiledScheme.Transmissions generates (checker-vs-compiler)
// and what the source scheme emits (window-vs-source), so a corrupted
// snapshot is caught even though the compiler's internal verification pass
// ran at compile time.
//
// The returned report extends the Static report with the new window kinds;
// a structurally malformed window short-circuits before interpretation.
func VerifyCompiled(c *core.CompiledScheme, opt Options) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("check: VerifyCompiled needs a compiled scheme")
	}
	if opt.Horizon <= 0 {
		return nil, fmt.Errorf("check: Horizon must be > 0, got %d", opt.Horizon)
	}
	if opt.Packets <= 0 {
		return nil, fmt.Errorf("check: Packets must be > 0, got %d", opt.Packets)
	}
	if c.NumReceivers() < 1 {
		return nil, fmt.Errorf("check: scheme has %d receivers", c.NumReceivers())
	}
	if err := arrivalFits(c, opt); err != nil {
		return nil, err
	}
	steady, period, backing, off := c.Window()
	v := newVerifier(c, opt)
	if !v.checkWindowShape(steady, period, backing, off) {
		return v.report, nil
	}

	// windowAt reconstructs slot t straight from the snapshot arrays. Steady
	// segments are stored at the epoch Shift() records; normalizing by the
	// live value keeps the reconstruction consistent even when interleaved
	// Transmissions calls re-shift the backing in place.
	var scratch []core.Transmission
	windowAt := func(t core.Slot) []core.Transmission {
		if t < 0 {
			return nil
		}
		if t < steady {
			return backing[off[t]:off[t+1]]
		}
		i := int((t - steady) % period)
		idx := int(steady) + i
		seg := backing[off[idx]:off[idx+1]]
		delta := core.Packet(int((t-steady)/period)*int(period) - c.Shift(i))
		scratch = scratch[:0]
		for _, tx := range seg {
			tx.Packet += delta
			scratch = append(scratch, tx)
		}
		return scratch
	}
	v.txAt = windowAt
	// Agreement first: a corrupted snapshot makes the downstream property
	// passes emit many symptom issues (hold violations, duplicates), and the
	// MaxIssues cap must not crowd out the root-cause mismatch findings.
	v.checkAgreement(windowAt, c, steady, period)
	v.verify()
	return v.report, nil
}

// checkWindowShape validates the snapshot arrays structurally: slot count,
// offset monotonicity, and full coverage of the backing. Returns false when
// the window cannot be interpreted.
func (v *verifier) checkWindowShape(steady, period core.Slot, backing []core.Transmission, off []int) bool {
	ok := true
	shape := func(format string, args ...interface{}) {
		ok = false
		v.issue(Issue{Slot: -1, Kind: KindWindowShape, Detail: fmt.Sprintf(format, args...)})
	}
	if period < 1 || steady < 0 {
		shape("steady %d, period %d; need steady >= 0 and period >= 1", steady, period)
		return false
	}
	if want := int(steady) + int(period) + 1; len(off) != want {
		shape("%d slot offsets for %d stored slots; want %d", len(off), int(steady)+int(period), want)
		return false
	}
	if off[0] != 0 {
		shape("first slot offset is %d; the window must start at 0", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			shape("slot offsets decrease at slot %d (%d -> %d)", i-1, off[i-1], off[i])
		}
	}
	if last := off[len(off)-1]; last != len(backing) {
		shape("offsets cover %d transmissions, backing holds %d", last, len(backing))
	}
	return ok
}

// checkAgreement asserts the three schedule views coincide over the
// compiler's verification horizon (warmup plus two periods): the window
// reconstruction, the compiler's Transmissions, and the source scheme. The
// window copy is taken before each Transmissions call because the compiler
// shifts steady segments in place.
func (v *verifier) checkAgreement(windowAt func(core.Slot) []core.Transmission, c *core.CompiledScheme, steady, period core.Slot) {
	src := c.Source()
	horizon := steady + 2*period
	if horizon > v.opt.Horizon {
		horizon = v.opt.Horizon
	}
	var want []core.Transmission
	for t := core.Slot(0); t < horizon; t++ {
		want = append(want[:0], windowAt(t)...)
		if tx, i, diff := firstDiff(want, c.Transmissions(t)); diff {
			v.issue(Issue{Slot: t, Kind: KindWindowMismatch, Tx: tx,
				Detail: diffDetail(i, "compiler generates a different slot than the verified window")})
		}
		if tx, i, diff := firstDiff(want, src.Transmissions(t)); diff {
			v.issue(Issue{Slot: t, Kind: KindSourceMismatch, Tx: tx,
				Detail: diffDetail(i, fmt.Sprintf("source scheme %s disagrees with the compiled window", src.Name()))})
		}
	}
}

// diffDetail locates a disagreement (index -1 is a length mismatch).
func diffDetail(i int, msg string) string {
	if i < 0 {
		return "slot lengths differ: " + msg
	}
	return fmt.Sprintf("transmission %d: %s", i, msg)
}

// firstDiff compares two slot transmission lists and returns the first
// differing entry (index -1 flags a length mismatch).
func firstDiff(a, b []core.Transmission) (core.Transmission, int, bool) {
	if len(a) != len(b) {
		return core.Transmission{}, -1, true
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i], i, true
		}
	}
	return core.Transmission{}, 0, false
}
