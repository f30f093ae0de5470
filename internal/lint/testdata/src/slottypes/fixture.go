// Package fixture exercises the slottypes analyzer: direct conversions that
// mix the three int-backed core identifier types are hits; conversions from
// plain ints, constants, or through an explicit int(...) bridge are not.
package fixture

import "streamcast/internal/core"

// Mixups crosses identifier domains directly — every line is a unit error
// waiting to happen.
func Mixups(t core.Slot, p core.Packet, id core.NodeID) {
	_ = core.Packet(t)  // want `conversion core\.Packet\(\.\.\.\) applied to a core\.Slot`
	_ = core.Slot(p)    // want `conversion core\.Slot\(\.\.\.\) applied to a core\.Packet`
	_ = core.NodeID(p)  // want `conversion core\.NodeID\(\.\.\.\) applied to a core\.Packet`
	_ = core.Packet(id) // want `conversion core\.Packet\(\.\.\.\) applied to a core\.NodeID`
}

// Bridged spells out the crossing through int, making the intent visible.
func Bridged(t core.Slot) core.Packet {
	return core.Packet(int(t))
}

// Unbridged is the seeded mutation no test caught (the live-source rule in
// slotsim, check and randreg with its bridge dropped): the same value, with
// the unit crossing no longer visible at the call site.
func Unbridged(p core.Packet, t core.Slot) bool {
	return core.Slot(p) <= t // want `conversion core\.Slot\(\.\.\.\) applied to a core\.Packet`
}

// Plain conversions from untyped constants and ints are the normal way to
// build identifiers and stay allowed.
func Plain(n int) (core.Slot, core.Packet, core.NodeID) {
	return core.Slot(3), core.Packet(n), core.NodeID(n + 1)
}

// SameType conversions are pointless but harmless.
func SameType(t core.Slot) core.Slot {
	return core.Slot(t)
}
