// Package core defines the shared model types for the streamcast system:
// the time-slotted communication model of Chow, Golubchik, Khuller and Yao,
// "On the Tradeoff Between Playback Delay and Buffer Space in Streaming"
// (USC TR 904 / IPPS 2009), Section 1.1.
//
// The model: a source streams an ordered sequence of packets to N
// receivers. Time is divided into slots, each equal to the playback time of
// one packet. Within a cluster every receiver can transmit one packet and
// receive one packet per slot; the source can transmit up to d packets per
// slot. Packets may arrive out of order but must be played back in order at
// one packet per slot. A packet received in slot t is usable (relayable and
// playable) from slot t+1 on. The two QoS measures every scheme trades off
// are playback delay (slots between a packet's first transmission and its
// playback) and buffer space (packets held but not yet played).
//
// Entry points: NodeID, Slot and Packet are the index types (the source is
// always NodeID 0, SourceID); Transmission is one scheduled packet copy; a
// Scheme is any scheme that can enumerate its Transmissions slot by slot
// for the engine in internal/slotsim to execute;
// StreamMode selects pre-recorded, live, or pre-buffered-live semantics.
package core
