package shard

import "sync"

// State is the versioned shared cluster state: one monotonically increasing
// epoch per node, bumped whenever the node's allocation changes (launch,
// finish). Shard planners snapshot the epochs when a cycle's free
// set is captured; at commit time a placement that cannot be applied is
// classified as a cross-shard double-claim exactly when nodes whose epoch
// moved since the snapshot would have satisfied it (internal/core's
// classifyConflict). Safe for concurrent use.
type State struct {
	mu    sync.Mutex
	epoch []uint64
}

// NewState returns the epoch vector for an n-node cluster, all zeros.
func NewState(n int) *State {
	return &State{epoch: make([]uint64, n)}
}

// Snapshot copies the current epochs into dst (grown if needed) and returns
// it.
func (st *State) Snapshot(dst []uint64) []uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cap(dst) < len(st.epoch) {
		dst = make([]uint64, len(st.epoch))
	}
	dst = dst[:len(st.epoch)]
	copy(dst, st.epoch)
	return dst
}

// Bump advances the epoch of each listed node.
func (st *State) Bump(nodes []int) {
	if len(nodes) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, n := range nodes {
		st.epoch[n]++
	}
}

// MovedSince collects the nodes whose epoch differs from the snapshot,
// appending into buf.
func (st *State) MovedSince(snap []uint64, buf []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	buf = buf[:0]
	for n := range st.epoch {
		if n < len(snap) && st.epoch[n] != snap[n] {
			buf = append(buf, n)
		}
	}
	return buf
}
