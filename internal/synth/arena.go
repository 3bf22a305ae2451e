package synth

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/netio"
)

// arenaChunkBits sizes the frame arena's chunks: 1 MiB each, far above
// the largest frame the builder can produce (an IP packet is at most
// 64 KiB), so every frame fits in one chunk.
const (
	arenaChunkBits = 20
	arenaChunk     = 1 << arenaChunkBits
)

// frameArena collects a trace's frames while it is generated. Frame bytes
// go into append-only chunks, one allocation per chunk; each frame leaves
// a pointer-free record, so the GC has nothing to scan in either while
// the trace is built.
type frameArena struct {
	chunks [][]byte
	recs   []frameRec
}

// frameRec locates one frame. off is the chunk index shifted past
// arenaChunkBits plus the position in that chunk; since the arena only
// appends, off grows with emission order and doubles as the frame's
// emission index.
type frameRec struct {
	at  time.Duration
	off int
	n   int
}

// add copies frame into the arena, starting a new chunk when the current
// one cannot hold it whole.
func (a *frameArena) add(at time.Duration, frame []byte) {
	k := len(a.chunks) - 1
	if k < 0 || len(a.chunks[k])+len(frame) > arenaChunk {
		a.chunks = append(a.chunks, make([]byte, 0, arenaChunk))
		k++
	}
	a.recs = append(a.recs, frameRec{at: at, off: k<<arenaChunkBits | len(a.chunks[k]), n: len(frame)})
	a.chunks[k] = append(a.chunks[k], frame...)
}

// packets returns the frames in time order, ties in emission order: the
// order a stable sort by timestamp gives. Each Data is a view into its
// chunk whose capacity ends at its length.
func (a *frameArena) packets() []netio.Packet {
	slices.SortFunc(a.recs, func(x, y frameRec) int {
		if x.at != y.at {
			return cmp.Compare(x.at, y.at)
		}
		return cmp.Compare(x.off, y.off)
	})
	out := make([]netio.Packet, len(a.recs))
	for i, r := range a.recs {
		pos := r.off & (arenaChunk - 1)
		out[i] = netio.Packet{Timestamp: r.at, Data: a.chunks[r.off>>arenaChunkBits][pos : pos+r.n : pos+r.n]}
	}
	return out
}
