// Package core wires the DN-Hunter pipeline together (paper Fig. 1): a
// packet source feeds the flow sniffer and the DNS response sniffer; DNS
// responses populate the resolver (the clients' cache replica); the flow
// tagger labels every flow at its first packet — before any payload byte —
// and emits labeled flows to the database and to the policy hook.
//
// The pipeline has two run modes: Engine.Run ingests a finite trace and
// returns an accumulated Result, while Server.Serve (see serve.go) runs
// the same stages against unbounded input with windowed flushing, overload
// shedding, and resolver checkpointing.
package core

import (
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/names"
	"repro/internal/netio"
	"repro/internal/resolver"
)

// TagEvent is delivered to the policy hook the moment a flow is first seen
// and labeled. Because it fires on the SYN, a policy enforcer can act on
// the whole connection including the three-way handshake.
type TagEvent struct {
	Key   flows.Key
	At    time.Duration
	Label string // empty when the resolver missed
	Hit   bool
	SYN   bool // true when the flow was caught at its first segment
	// PreDNS is the first packet's time minus the labeling response's
	// (Fig. 12's delay); 0 on a miss.
	PreDNS time.Duration
	// Vantage names the packet source that observed the flow; empty for
	// single-source runs (Engine.Run).
	Vantage string
}

// DNSEvent describes one sniffed DNS response.
type DNSEvent struct {
	At       time.Duration
	Client   netip.Addr
	FQDN     string
	NumAddrs int
	// Vantage names the packet source that sniffed the response; empty for
	// single-source runs (Engine.Run).
	Vantage string
}

// Config assembles a pipeline.
type Config struct {
	// Resolver configuration (Clist size).
	Resolver resolver.Config
	// Flows configures the flow table (timeouts, client networks).
	Flows flows.Config
	// OnTag, when set, fires at flow start with the assigned label — the
	// online policy-enforcement hook.
	OnTag func(TagEvent)
	// OnDNSResponse, when set, fires for every decoded DNS response.
	OnDNSResponse func(DNSEvent)
	// OnFlow, when set, fires for every finished labeled flow, after it is
	// stored in the database.
	OnFlow func(flowdb.LabeledFlow)
	// Truth, when set, supplies ground-truth FQDNs for synthetic flows
	// (used only for scoring, never for labeling).
	Truth func(flows.Key) string
	// Vantage labels every emitted event and flow record with the packet
	// source's name. The multi-source Engine sets it per vantage pipeline;
	// empty (the default) leaves records unlabeled, preserving the exact
	// single-source output.
	Vantage string
}

// sinkConfig bridges a Sink onto the legacy callback fields.
func sinkConfig(cfg Config, s Sink) Config {
	if s == nil {
		return cfg
	}
	cfg.OnTag = s.OnTag
	cfg.OnDNSResponse = s.OnDNSResponse
	cfg.OnFlow = s.OnFlow
	return cfg
}

// Stats aggregates pipeline counters.
type Stats struct {
	Parser   layers.ParserStats
	Resolver resolver.Stats
	Table    flows.TableStats
	// DNSResponses counts sniffed DNS responses carrying >= 1 address.
	DNSResponses uint64
	// DNSResponsesEmpty counts responses with no usable address records.
	DNSResponsesEmpty uint64
	// DNSMalformed counts UDP/53 payloads that failed to parse.
	DNSMalformed uint64
	// UsedEntries counts resolver entries that labeled at least one flow;
	// DNSResponses - UsedEntries approximates the paper's "useless DNS"
	// (Table 9).
	UsedEntries uint64
	// Flows counts labeled-flow records emitted.
	Flows uint64
	// LabeledFlows counts records that carried a label.
	LabeledFlows uint64
}

// UselessDNSFraction returns the fraction of address-bearing DNS responses
// never followed by a flow (Table 9).
func (s Stats) UselessDNSFraction() float64 {
	if s.DNSResponses == 0 {
		return 0
	}
	return 1 - float64(s.UsedEntries)/float64(s.DNSResponses)
}

// Add accumulates o into s; the sharded Engine merges per-shard counters
// with it. Because every client lives on exactly one shard, summing the
// per-shard counters reproduces the single-pipeline aggregates.
func (s *Stats) Add(o Stats) {
	s.Parser.Add(o.Parser)
	s.Resolver.Add(o.Resolver)
	s.Table.Add(o.Table)
	s.DNSResponses += o.DNSResponses
	s.DNSResponsesEmpty += o.DNSResponsesEmpty
	s.DNSMalformed += o.DNSMalformed
	s.UsedEntries += o.UsedEntries
	s.Flows += o.Flows
	s.LabeledFlows += o.LabeledFlows
}

// DNHunter is one assembled single-threaded pipeline instance. Not safe
// for concurrent use. It remains the building block the sharded Engine
// runs one of per shard; new code should prefer Engine, which adds
// context cancellation, error returns, and parallelism.
type DNHunter struct {
	cfg Config
	// names is the pipeline's one name table: the DNS decoder files each
	// QNAME in it, the resolver's entries and the flow table's flows name
	// their FQDNs and names by ID in it.
	names  *names.Table
	res    *resolver.Resolver
	table  *flows.Table
	db     *flowdb.DB
	parser layers.Parser
	dnsMsg dnswire.Message
	// addrs is the reusable answer-address scratch for handleDNS.
	addrs []netip.Addr
	stats Stats
}

// New assembles a pipeline from cfg.
func New(cfg Config) *DNHunter {
	nt := names.New()
	h := &DNHunter{
		cfg:   cfg,
		names: nt,
		res:   resolver.NewWithNames(cfg.Resolver, nt),
		db:    flowdb.New(),
	}
	fcfg := cfg.Flows
	fcfg.OnRecord = h.onRecord
	h.table = flows.NewTableWithNames(fcfg, nt)
	h.dnsMsg.SetNames(nt)
	return h
}

// DB returns the labeled flows database. In serve mode it is the open
// window, which the engine swaps at every window boundary.
func (h *DNHunter) DB() *flowdb.DB { return h.db }

// Resolver exposes the cache replica (for diagnostics and experiments).
func (h *DNHunter) Resolver() *resolver.Resolver { return h.res }

// Stats snapshots the pipeline counters.
func (h *DNHunter) Stats() Stats {
	s := h.stats
	s.Parser = h.parser.Stats
	s.Resolver = h.res.Stats()
	s.Table = h.table.Stats()
	return s
}

// HandlePacket feeds one packet through the pipeline (streaming use).
func (h *DNHunter) HandlePacket(pkt netio.Packet) {
	info, err := h.parser.Parse(pkt.Data)
	if err != nil {
		// Malformed and unhandled frames are counted by the parser.
		return
	}
	h.handleParsed(info, pkt.Timestamp)
}

// handleParsed feeds one already-decoded packet through the pipeline.
func (h *DNHunter) handleParsed(info *layers.Decoded, at time.Duration) {
	if info.HasUDP && (info.SrcPort == 53 || info.DstPort == 53) {
		h.handleDNSPayload(info.DstIP, info.Payload, at)
		return
	}
	h.table.Add(info, at, h.onNewFlow)
}

// handleOrientedFlow feeds one pre-routed flow entry through the pipeline.
// The shard workers use it directly: the Engine's dispatcher owns the
// parser and the orientation replica, so shards skip both the parse and
// the orient step (and keep zero parser stats of their own).
func (h *DNHunter) handleOrientedFlow(e *shardEntry, payload []byte) {
	p := flows.OrientedPacket{
		Key: e.key, C2S: e.c2s, Hash: e.hash, TCP: e.tcp, Flags: e.flags, Payload: payload,
	}
	h.table.AddOriented(&p, e.at, h.onNewFlow)
}

// expireFlow expires one flow the dispatcher's tracker declared idle. The
// sharded Engine delivers these in-band, so expiry happens at the same
// trace times (and on the same flows) on every shard as it would in a
// single-threaded run, where the table's own recency list drives FlushIdle.
func (h *DNHunter) expireFlow(key flows.Key, hash uint64) {
	h.table.ExpireFlow(key, hash)
}

// Close flushes all in-flight flows (end of capture).
func (h *DNHunter) Close() {
	h.table.FlushAll()
}

// handleDNSPayload decodes a DNS payload and inserts responses into the
// resolver. client is the packet's destination address: a response travels
// server → client, so the monitored client is the destination.
func (h *DNHunter) handleDNSPayload(client netip.Addr, payload []byte, at time.Duration) {
	if err := h.dnsMsg.Unpack(payload); err != nil {
		h.stats.DNSMalformed++
		return
	}
	if !h.dnsMsg.Header.Response {
		return // queries carry no answer list
	}
	// Unpack lowercases names as it decodes them and files the question
	// name in the pipeline's name table, so it is used by ID as it is.
	fqdn := h.dnsMsg.QuestionID()
	addrs := h.dnsMsg.AppendAnswerAddrs(h.addrs[:0])
	h.addrs = addrs
	if fqdn == 0 || len(addrs) == 0 {
		h.stats.DNSResponsesEmpty++
		return
	}
	h.stats.DNSResponses++
	h.res.InsertID(client, fqdn, addrs, at)
	if h.cfg.OnDNSResponse != nil {
		h.cfg.OnDNSResponse(DNSEvent{At: at, Client: client, FQDN: h.names.Str(fqdn), NumAddrs: len(addrs), Vantage: h.cfg.Vantage})
	}
}

// onNewFlow is the pre-flow tagging hook: label the 5-tuple the moment its
// first packet appears. The tag rides in the flow's table slot until
// onRecord collects it.
func (h *DNHunter) onNewFlow(key flows.Key, at time.Duration, sawSYN bool, hd flows.Handle) {
	tg := h.table.Tag(hd)
	if e, ok := h.res.LookupEntry(key.ClientIP, key.ServerIP); ok {
		*tg = flows.Tag{Label: e.FQDN, DNSAt: e.At, Hit: true, PreFlow: sawSYN}
		if !e.Used() {
			e.SetUsed()
			tg.FirstUse = true
			h.stats.UsedEntries++
		}
	}
	if h.cfg.OnTag != nil {
		ev := TagEvent{Key: key, At: at, Label: h.names.Str(tg.Label), Hit: tg.Hit, SYN: sawSYN, Vantage: h.cfg.Vantage}
		if tg.Hit {
			ev.PreDNS = at - tg.DNSAt
		}
		h.cfg.OnTag(ev)
	}
}

// onRecord receives finished flows from the table and emits labeled flows.
// The table zeroes the flow's tag once it returns.
func (h *DNHunter) onRecord(r flows.Record, hd flows.Handle) {
	tg := h.table.Tag(hd)
	lf := flowdb.LabeledFlow{
		Record:  r,
		Label:   h.names.Str(tg.Label),
		Labeled: tg.Hit,
		PreFlow: tg.PreFlow,
		Vantage: h.cfg.Vantage,
	}
	if tg.Hit {
		lf.DNSDelay = r.Start - tg.DNSAt
		lf.FirstAfterDNS = tg.FirstUse
	}
	if h.cfg.Truth != nil {
		lf.Truth = h.cfg.Truth(r.Key)
	}
	h.stats.Flows++
	if tg.Hit {
		h.stats.LabeledFlows++
	}
	h.db.Add(lf)
	if h.cfg.OnFlow != nil {
		h.cfg.OnFlow(lf)
	}
}
