// Package stream holds the sketch-based streaming implementations of the
// analytics queries: bounded state, documented error bounds, and
// merge-order-independent snapshots. Each query here mirrors an exact
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
//
// Merging sums (count, err) pointwise over the key union WITHOUT
// re-truncating to capacity — truncating per pairwise merge would make
// the result depend on merge order. A key absent from one side is not
// simply counted as zero there: that sketch may have observed and then
// evicted it, so its floor — an upper bound on any untracked key's true
// count — is imputed into both count and err. Floors add across merges,
// which keeps the fold commutative and associative: every merged count
// is Σ(countᵢ or floorᵢ) regardless of association. The merged sketch
// transiently holds up to shards×m counters; Snapshot (Top) sorts
// deterministically (count desc, key asc) and only then cuts to k. The
// per-key bounds and the N/m guarantee hold for the merged totals.
type SpaceSaving struct {
	capacity int
	idx      map[string]int32
	slots    []ssSlot
	observed uint64
	// floor bounds the true count of any key NOT currently tracked: a key
	// is tracked from the moment it is observed, so an untracked key was
	// last seen no later than its last eviction, when its count was at
	// most the evicted counter. Starts 0, raised by evictions, summed by
	// merges.
	floor uint64
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

// Observed returns the number of Observe calls folded in (including
// merged-in sketches').
func (s *SpaceSaving) Observed() uint64 { return s.observed }

// Len returns the number of live counters (may exceed Capacity right
// after a merge; Observe evicts back toward the budget).
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
	// overestimation bound (the classic space-saving step). The evicted
	// key becomes untracked with true count ≤ the evicted counter, so the
	// floor rises to cover it.
	min := &s.slots[0]
	delete(s.idx, min.key)
	if min.count > s.floor {
		s.floor = min.count
	}
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

// Merge folds another sketch into this one: pointwise (count, err) sums
// over the key union with floor imputation for one-sided keys, no
// truncation (see the type comment for why). Commutative and associative
// up to heap layout, which Snapshot normalizes away.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	s.observed += o.observed
	// Keys only this side tracks: the other sketch may have seen and
	// evicted them, so its floor bounds the uncounted occurrences.
	if o.floor > 0 {
		for i := range s.slots {
			if _, both := o.idx[s.slots[i].key]; !both {
				s.slots[i].count += o.floor
				s.slots[i].err += o.floor
			}
		}
	}
	sf := s.floor // pre-merge floor, imputed for keys only o tracks
	for i := range o.slots {
		os := &o.slots[i]
		if j, ok := s.idx[os.key]; ok {
			s.slots[j].count += os.count
			s.slots[j].err += os.err
			continue
		}
		s.slots = append(s.slots, ssSlot{key: os.key, count: os.count + sf, err: os.err + sf})
		s.idx[os.key] = int32(len(s.slots) - 1)
	}
	s.floor += o.floor
	// Counts moved arbitrarily; rebuild the heap in one O(n) pass.
	for i := len(s.slots)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Top returns the k heaviest tracked keys, sorted by estimated count
// descending (ties by key ascending); k <= 0 returns all. The result is
// deterministic for a given observed multiset regardless of observation
// interleaving across merged shards.
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
