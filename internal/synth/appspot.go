package synth

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// appspot.go models the appspot.com services of the live window (§5.6,
// Table 8, Figs. 10/11): BitTorrent trackers freeloading on Google's app
// engine, each with its own activity schedule, next to Zipf-ranked general
// web apps. Only a scenario with AppspotShare > 0 builds one.

const (
	nTrackers    = 45
	nPersistent  = 15 // the always-on trackers, the paper's ids 1–15
	nGeneralApps = 560
	// syncBin is the on/off period of the synchronized tracker group.
	syncBin = 4 * time.Hour
)

// trackerKind is one tracker activity pattern of Fig. 11.
type trackerKind uint8

const (
	trackerAlways   trackerKind = iota // persistently active
	trackerSync                        // a synchronized swarm group (the paper's ids 26–31)
	trackerSporadic                    // born partway, active now and then
	trackerDying                       // runs out of quota and dies: still resolved, no content after
)

// tracker is one appspot BitTorrent tracker.
type tracker struct {
	fqdn        string
	kind        trackerKind
	born, death time.Duration
}

// appspotModel holds the appspot services of one trace.
type appspotModel struct {
	trackers []tracker
	apps     []string
	appPick  *stats.Zipf
	// syncOn says, per syncBin of the trace, whether the synchronized
	// group is active.
	syncOn []bool
}

// newAppspotModel draws the tracker schedules of a trace of length total.
func newAppspotModel(rng *stats.RNG, total time.Duration) *appspotModel {
	m := &appspotModel{
		trackers: make([]tracker, nTrackers),
		apps:     make([]string, nGeneralApps),
		appPick:  stats.NewZipf(nGeneralApps, 1.1),
		syncOn:   make([]bool, total/syncBin+1),
	}
	for i := range m.trackers {
		t := &m.trackers[i]
		t.fqdn = fmt.Sprintf("bt-tracker-%02d.appspot.com", i+1)
		t.death = total
		switch {
		case i < nPersistent:
			t.kind = trackerAlways
		case i >= 25 && i < 31:
			t.kind, t.born = trackerSync, total*3/10
		case rng.Bool(0.5):
			t.kind, t.born = trackerSporadic, time.Duration(rng.Float64()*float64(total)*0.7)
		default:
			t.kind, t.born = trackerDying, time.Duration(rng.Float64()*float64(total)*0.4)
			t.death = t.born + time.Duration(rng.Float64()*float64(total)*0.5)
		}
	}
	for i := range m.apps {
		m.apps[i] = fmt.Sprintf("webapp-%03d.appspot.com", i)
	}
	for i := range m.syncOn {
		m.syncOn[i] = rng.Bool(0.45)
	}
	return m
}

// pick chooses the service one appspot session contacts and the kind of
// its flow, or "" when the chosen tracker is inactive at at. Trackers take
// 85% of the sessions (Table 8: 186K tracker vs 77K general flows), and
// BitTorrent clients re-announce to the same popular trackers, so the
// persistent ones dominate.
func (m *appspotModel) pick(rng *stats.RNG, at time.Duration) (string, flowKind) {
	if !rng.Bool(0.85) {
		return m.apps[m.appPick.Sample(rng)], kindApp
	}
	t := &m.trackers[rng.Intn(nTrackers)]
	if rng.Bool(0.8) {
		t = &m.trackers[rng.Intn(nPersistent)]
	}
	if at < t.born || at >= t.death {
		return "", 0
	}
	var active bool
	switch t.kind {
	case trackerAlways:
		active = rng.Bool(0.95)
	case trackerSync:
		active = m.syncOn[at/syncBin]
	default:
		active = rng.Bool(0.35)
	}
	if !active {
		return "", 0
	}
	return t.fqdn, kindAnnounce
}
