package main

import (
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/netio"
)

// The benchmark's packet sources. Both are in-memory: no socket, no link,
// no loopback. The engine pulls from them on its own reader goroutine, so
// generating load adds no thread to the two the box has. Neither declares
// netio.StableSource: like a capture ring, their buffers are promised only
// until the next read, so a sharded engine moves payloads through
// refcounted netio.Blocks as it would in deployment.

// pullLog records when the engine took each block, so a tag can be timed
// from the moment its packet entered the engine.
type pullLog struct {
	firstTS []time.Duration // trace timestamp of each block's first packet
	pulled  []time.Duration // wall offset (since the run's start) of the read
}

func (l *pullLog) reset() { l.firstTS, l.pulled = l.firstTS[:0], l.pulled[:0] }

// pulledBefore returns when the packet with trace timestamp ts, tagged at
// wall offset tagAt, was pulled: the latest block that starts at or before
// ts and was read before the tag fired (timestamps can repeat across a
// block boundary; a tag never precedes its own packet's read).
func (l *pullLog) pulledBefore(ts, tagAt time.Duration) time.Duration {
	i := sort.Search(len(l.firstTS), func(i int) bool { return l.firstTS[i] > ts }) - 1
	for i > 0 && l.pulled[i] > tagAt {
		i--
	}
	if i < 0 {
		return tagAt
	}
	return l.pulled[i]
}

// replaySource replays one pass of a trace (closed loop: the next block is
// handed over whenever the engine asks). It logs every block read and the
// moment it reported EOF, from which end-of-capture drain time is taken.
type replaySource struct {
	pkts  []netio.Packet
	next  int
	start time.Time
	log   *pullLog
	eofAt time.Duration
}

func newReplaySource(pkts []netio.Packet, log *pullLog) *replaySource {
	return &replaySource{pkts: pkts, log: log, start: time.Now()}
}

// Next implements netio.PacketSource.
func (s *replaySource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if _, err := s.ReadBlock(one[:]); err != nil {
		return netio.Packet{}, err
	}
	return one[0], nil
}

// ReadBlock implements netio.BlockSource.
func (s *replaySource) ReadBlock(dst []netio.Packet) (int, error) {
	n := copy(dst, s.pkts[s.next:])
	if n == 0 {
		s.eofAt = time.Since(s.start)
		return 0, io.EOF
	}
	s.next += n
	s.log.firstTS = append(s.log.firstTS, dst[0].Timestamp)
	s.log.pulled = append(s.log.pulled, time.Since(s.start))
	return n, nil
}

// pull is one block handed to a serving engine.
type pull struct {
	first int64 // global index of the block's first packet
	n     int32
	at    time.Duration // wall offset of the read
}

// pacedSource feeds a serving engine from a netio.LoopSource over the
// trace. With rate == 0 it is a closed loop (every read returns a full
// block). With rate > 0 it is an open loop: packet i is due at start +
// i/rate whatever the engine does; a read returns whatever is already due
// (at least one packet, waiting for the first if none is) and the schedule
// never slows when the engine does. Trace timestamps are left untouched, so
// idle sweeps and windows keep their trace-time meaning.
type pacedSource struct {
	loop     *netio.LoopSource
	tracePk  []netio.Packet
	period   time.Duration
	rate     float64
	start    time.Time
	released int64
	// onStop is called once, when stopAfter packets have been released
	// (closed-loop segments end after a fixed amount of work) or stopAt of
	// wall time has passed (open-loop rungs end on schedule, however far
	// behind the engine is); zero disables either condition.
	stopAfter      int64
	stopAt         time.Duration
	onStop         func()
	stoppedAt      time.Duration
	releasedAtStop int64
	// offeredAtEnd is how many packets were due by the last read.
	offeredAtEnd int64
	pulls        []pull
}

func newPacedSource(pkts []netio.Packet, rate float64) *pacedSource {
	period := pkts[len(pkts)-1].Timestamp + time.Millisecond
	return &pacedSource{
		loop:    netio.NewLoopSource(pkts, period, 0),
		tracePk: pkts,
		period:  period,
		rate:    rate,
		start:   time.Now(),
	}
}

// dueAt is when packet i is due, as a wall offset from start.
func (s *pacedSource) dueAt(i int64) time.Duration {
	return time.Duration(float64(i) / s.rate * float64(time.Second))
}

// Next implements netio.PacketSource.
func (s *pacedSource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if _, err := s.ReadBlock(one[:]); err != nil {
		return netio.Packet{}, err
	}
	return one[0], nil
}

// ReadBlock implements netio.BlockSource.
func (s *pacedSource) ReadBlock(dst []netio.Packet) (int, error) {
	want := len(dst)
	if s.rate > 0 {
		// Sub-millisecond waits only (the slowest rung is 4 us apart), so
		// yield rather than sleep: the shards share these two cores.
		first := s.dueAt(s.released)
		now := time.Since(s.start)
		for now < first {
			runtime.Gosched()
			now = time.Since(s.start)
		}
		due := int64(now.Seconds()*s.rate) + 1 - s.released
		want = int(min(int64(want), max(due, 1)))
	}
	n, err := s.loop.ReadBlock(dst[:want])
	if n > 0 {
		now := time.Since(s.start)
		s.pulls = append(s.pulls, pull{first: s.released, n: int32(n), at: now})
		s.released += int64(n)
		if s.rate > 0 {
			s.offeredAtEnd = int64(now.Seconds()*s.rate) + 1
		}
		if s.onStop != nil && (s.stopAfter > 0 && s.released >= s.stopAfter || s.stopAt > 0 && now >= s.stopAt) {
			s.stoppedAt, s.releasedAtStop = now, s.released
			s.onStop()
			s.onStop = nil
		}
	}
	return n, err
}

// indexOf maps a (loop-shifted) trace timestamp back to the global index
// of the first packet carrying it.
func (s *pacedSource) indexOf(ts time.Duration) int64 {
	pass := int64(ts / s.period)
	rem := ts - time.Duration(pass)*s.period
	i := sort.Search(len(s.tracePk), func(i int) bool { return s.tracePk[i].Timestamp >= rem })
	return pass*int64(len(s.tracePk)) + int64(i)
}

// lagsUs expands the pull log into one due→pulled lateness per packet
// released in the wall interval [from, to), in microseconds.
func (s *pacedSource) lagsUs(from, to time.Duration) []float64 {
	var out []float64
	for _, p := range s.pulls {
		if p.at < from || p.at >= to {
			continue
		}
		for k := int64(0); k < int64(p.n); k++ {
			out = append(out, us(p.at-s.dueAt(p.first+k)))
		}
	}
	return out
}
