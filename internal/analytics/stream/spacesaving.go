// Package stream holds the sketch-based streaming implementations of the
// analytics queries: bounded state, documented error bounds, and
// deterministic snapshots. Each query here mirrors an exact
// reference in internal/analytics (the differential-fuzz ground truth);
// register either family in an analytics.Pipeline — batch runs feed it
// with ObserveDB, Engine.Serve feeds it per window through the flowdb
// pre-discard observer.
package stream

import (
	"sort"

	"repro/internal/analytics"
)

// SpaceSaving is the Metwally et al. heavy-hitters sketch: a fixed
// budget of (key, count, err) counters arranged as a min-heap on count.
// A known key increments its counter; a new key beyond the budget evicts
// the minimum counter, inheriting its count as the new key's
// overestimation bound. Invariants, for N observed keys and capacity m:
//
//   - every tracked key's true count lies in [count-err, count];
//   - err ≤ N/m (the evicted minimum can never exceed the mean);
//   - any key with true count > N/m is guaranteed tracked.
type SpaceSaving struct {
	capacity int
	idx      map[string]int32
	slots    []ssSlot
	observed uint64
}

type ssSlot struct {
	key   string
	count uint64
	err   uint64
}

// NewSpaceSaving builds a sketch with the given counter budget
// (minimum 1).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{
		capacity: capacity,
		idx:      make(map[string]int32, capacity),
		slots:    make([]ssSlot, 0, capacity),
	}
}

// Capacity returns the counter budget.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// Observed returns the number of Observe calls folded in.
func (s *SpaceSaving) Observed() uint64 { return s.observed }

// Len returns the number of live counters (at most Capacity).
func (s *SpaceSaving) Len() int { return len(s.slots) }

// Observe folds one occurrence of key into the sketch. Allocation-free
// in steady state: once the counter budget is reached, every call is a
// heap fixup plus one map delete/insert pair over pre-sized storage.
func (s *SpaceSaving) Observe(key string) {
	s.observed++
	if i, ok := s.idx[key]; ok {
		s.slots[i].count++
		s.siftDown(int(i))
		return
	}
	if len(s.slots) < s.capacity {
		s.slots = append(s.slots, ssSlot{key: key, count: 1})
		s.idx[key] = int32(len(s.slots) - 1)
		s.siftUp(len(s.slots) - 1)
		return
	}
	// Evict the minimum counter: the newcomer inherits its count as the
	// overestimation bound (the classic space-saving step).
	min := &s.slots[0]
	delete(s.idx, min.key)
	min.key = key
	min.err = min.count
	min.count++
	s.idx[key] = 0
	s.siftDown(0)
}

// siftDown restores the min-heap property downward from i, keeping the
// key index in sync.
func (s *SpaceSaving) siftDown(i int) {
	n := len(s.slots)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.slots[l].count < s.slots[min].count {
			min = l
		}
		if r < n && s.slots[r].count < s.slots[min].count {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// siftUp restores the min-heap property upward from i.
func (s *SpaceSaving) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.slots[p].count <= s.slots[i].count {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SpaceSaving) swap(i, j int) {
	s.slots[i], s.slots[j] = s.slots[j], s.slots[i]
	s.idx[s.slots[i].key] = int32(i)
	s.idx[s.slots[j].key] = int32(j)
}

// Top returns the k heaviest tracked keys, sorted by estimated count
// descending (ties by key ascending); k <= 0 returns all. The result is
// deterministic for a given observation sequence.
func (s *SpaceSaving) Top(k int) []analytics.TopEntry {
	out := make([]analytics.TopEntry, len(s.slots))
	for i := range s.slots {
		out[i] = analytics.TopEntry{Key: s.slots[i].key, Count: s.slots[i].count, Err: s.slots[i].err}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
