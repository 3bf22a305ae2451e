package main

import (
	"fmt"
	"net/netip"
	"time"

	dnhunter "repro"
	"repro/internal/flows"
	"repro/internal/netio"
	"repro/internal/orgdb"
	"repro/internal/synth"
)

// metricDecl declares one metric. BENCHMARK.json carries the same table
// for the driver; TestDeclarationsMatchBenchmarkJSON keeps the two equal.
type metricDecl struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd is what a user of the system sees, on every workload.
var endToEnd = []metricDecl{
	// Bounds were calibrated on the reference box (README, "Calibration"):
	// its speed drifts by 10-19% for minutes at a time, every workload
	// alike, so every time-based metric carries the widest bound allowed.
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s", "pkts/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.05},
	{"alloc_bytes_per_pkt", "B", "lower", 0.15},
	{"heap_growth_mb", "MB", "lower", 0.10},
	{"label_accuracy", "ratio", "higher", 0.01},
	{"tag_latency_p50_us", "us", "lower", 0.25},
	{"delivered_ratio", "ratio", "higher", 0.25},
}

// rungs are the fixed open-loop rates of serve-ftth, in packets per second.
var rungs = []struct {
	Tag string
	PPS float64
}{
	{"r250k", 250e3}, {"r500k", 500e3}, {"r1m", 1e6}, {"r2m", 2e6}, {"r4m", 4e6},
}

const (
	// latencyRung is the rung whose tag latency is the end-to-end figure.
	latencyRung = 1
	// topRung is the rung whose delivered ratio is the end-to-end figure:
	// calibration showed the reference box sustaining 2M pkts/s, so overload
	// is tested at 4M.
	topRung = 4
	// tagLimit is the first-packet tag latency a sustained rung must meet
	// at its tail percentile.
	tagLimit = 5 * time.Millisecond
)

// perLayer is the traced pass's output: module-prefixed, no bounds.
var perLayer = func() []metricDecl {
	d := []metricDecl{
		{"netio.readblock_ns_per_pkt", "ns", "lower", 0},
		{"netio.readblockref_ns_per_pkt", "ns", "lower", 0},
		{"netio.peek_ns_per_pkt", "ns", "lower", 0},
		{"netio.blockpool_allocs", "count", "lower", 0},
		{"netio.blocks_retired", "count", "lower", 0},
		{"netio.block_retire_avg_ns", "ns", "lower", 0},
		{"layers.parse_ns_per_pkt", "ns", "lower", 0},
		{"layers.malformed", "count", "lower", 0},
		{"dnswire.unpack_ns_per_msg", "ns", "lower", 0},
		{"dnswire.msgs", "count", "higher", 0},
		{"dnswire.malformed", "count", "lower", 0},
		{"resolver.insert_ns_per_op", "ns", "lower", 0},
		{"resolver.evictions", "count", "lower", 0},
		{"resolver.lookup_ns_per_op", "ns", "lower", 0},
		{"resolver.hit_ratio", "ratio", "higher", 0},
		{"resolver.entries_alive", "count", "lower", 0},
		{"resolver.snapshot_ms", "ms", "lower", 0},
		{"resolver.restore_ms", "ms", "lower", 0},
		{"flows.add_ns_per_pkt", "ns", "lower", 0},
		{"flows.active_peak", "count", "lower", 0},
		{"flows.flush_ns_per_flow", "ns", "lower", 0},
		{"flows.route_ns_per_pkt", "ns", "lower", 0},
		{"core.handle_ns_per_pkt", "ns", "lower", 0},
		{"core.engine_overhead_ns_per_pkt", "ns", "lower", 0},
		{"core.dispatch_cpu_ns_per_pkt", "ns", "lower", 0},
		{"core.cpu_over_wall", "ratio", "lower", 0},
		{"core.drain_ms", "ms", "lower", 0},
		{"core.ring_full_parks", "count", "lower", 0},
		{"core.mesh_full_parks", "count", "lower", 0},
		{"core.shed_flows", "count", "lower", 0},
		{"core.shed_dns", "count", "lower", 0},
		{"core.ring_depth_max", "count", "lower", 0},
		{"core.sustainable_pps", "pkts/s", "higher", 0},
		{"core.tag_latency_p99_us", "us", "lower", 0},
	}
	for _, r := range rungs {
		d = append(d,
			metricDecl{"core.tag_latency_p50_us." + r.Tag, "us", "lower", 0},
			metricDecl{"core.tag_latency_p99_us." + r.Tag, "us", "lower", 0},
			metricDecl{"core.source_lag_p99_us." + r.Tag, "us", "lower", 0},
			metricDecl{"core.delivered_ratio." + r.Tag, "ratio", "higher", 0},
		)
	}
	return append(d,
		metricDecl{"flowdb.add_ns_per_flow", "ns", "lower", 0},
		metricDecl{"flowdb.flows", "count", "higher", 0},
		metricDecl{"flowdb.windowed_add_ns_per_flow", "ns", "lower", 0},
		metricDecl{"flowdb.windows_flushed", "count", "higher", 0},
		metricDecl{"flowdb.window_flush_us_p50", "us", "lower", 0},
		metricDecl{"flowdb.window_flush_us_max", "us", "lower", 0},
		metricDecl{"flowdb.writecsv_ns_per_flow", "ns", "lower", 0},
		metricDecl{"analytics.observe_ns_per_flow", "ns", "lower", 0},
		metricDecl{"analytics.snapshot_ms", "ms", "lower", 0},
		metricDecl{"serve.metrics_scrape_us", "us", "lower", 0},
		metricDecl{"serve.stats_json_us", "us", "lower", 0},
		metricDecl{"trace.layer_sum_over_e2e", "ratio", "higher", 0},
		metricDecl{"trace.unattributed_ns_per_pkt", "ns", "lower", 0},
		metricDecl{"trace.overhead_ratio", "ratio", "lower", 0},
	)
}()

// workload is one named set of inputs plus the engine configuration it
// runs under. The names are final: later issues refer to them.
type workload struct {
	Name, Why string
	// Scenario names the synth capture; empty selects the wide generator.
	Scenario string
	// Shards is the engine's shard count; ClientNets adds the synthetic
	// vantage's 10.0.0.0/16 client network (reader striping and the
	// dispatcher's orientation need it).
	Shards     int
	ClientNets bool
	// Clist overrides the resolver's Clist size (0 keeps the 1M default).
	Clist int
	// Serve runs Engine.Serve over a looping source instead of Engine.Run
	// over one pass.
	Serve bool
}

var workloads = []workload{
	{
		Name:     "batch-ftth",
		Why:      "the paper's representative mix (Table 1), cache-resident: layers parse and flows.Table dominate, the resolver mostly reads; the single-threaded baseline",
		Scenario: synth.NameEU1FTTH, Shards: 1,
	},
	{
		Name:     "batch-churn",
		Why:      "DNS-heavy mix on a 16k Clist: dnswire.Unpack and resolver.Insert with constant eviction dominate, flows are short; ~flat for flow-path changes",
		Scenario: synth.NameDNSChurn, Shards: 1, Clist: 16384,
	},
	{
		Name:   "batch-wide",
		Why:    "2e5 clients with all flows live at once: working set far beyond cache, table probes and slab growth dominate; a parse-only win should not move it",
		Shards: 1,
	},
	{
		Name:     "batch-ftth-s2",
		Why:      "batch-ftth on 2 shards: the only batch row where dispatcher, flows.Tracker, SPSC rings and netio.Block refcounts run; prices dispatch against batch-ftth",
		Scenario: synth.NameEU1FTTH, Shards: 2, ClientNets: true,
	},
	{
		Name:     "serve-ftth",
		Why:      "the deployed shape: Engine.Serve on 2 shards with shedding, 5-min windows, CSV emit, streaming analytics and checkpoint; closed loop, then open loop at 500k and 4M pkts/s",
		Scenario: synth.NameEU1FTTH, Shards: 2, ClientNets: true, Serve: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes scales the inputs: the full sizes are part of the benchmark's
// definition, the smoke sizes exist so the whole harness runs in seconds.
type sizes struct {
	SynthScale  float64
	WideClients int
}

var (
	fullSizes  = sizes{SynthScale: 16, WideClients: 200_000}
	smokeSizes = sizes{SynthScale: 0.25, WideClients: 2_000}
)

// input is one generated trace with the sidecars the checks need.
type input struct {
	Packets []netio.Packet
	Truth   func(flows.Key) string
	// Exact reports that every flow's truth is known by construction, so
	// label accuracy must be exactly 1 (the wide generator).
	Exact bool
	Orgs  *orgdb.DB
	Bytes int64
}

// generate builds the workload's trace from seed.
func (w *workload) generate(seed uint64, sz sizes) (*input, error) {
	in := &input{}
	if w.Scenario == "" {
		tr, err := generateWide(sz.WideClients, seed)
		if err != nil {
			return nil, err
		}
		in.Packets, in.Exact = tr.Packets, true
		in.Truth = func(k flows.Key) string { return tr.Truth[k] }
	} else {
		tr := synth.Generate(synth.NamedScenario(w.Scenario, sz.SynthScale, seed))
		in.Packets, in.Truth, in.Orgs = tr.Packets, tr.TruthFunc(), tr.OrgDB
	}
	if len(in.Packets) == 0 {
		return nil, fmt.Errorf("%s: generated an empty trace", w.Name)
	}
	for _, p := range in.Packets {
		in.Bytes += int64(len(p.Data))
	}
	return in, nil
}

// clientNets is where every synth scenario places its clients and LDNS.
var clientNets = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}

// engineOptions is the workload's engine configuration.
func (w *workload) engineOptions(in *input, sink dnhunter.Sink) []dnhunter.Option {
	opts := []dnhunter.Option{
		dnhunter.WithShards(w.Shards),
		dnhunter.WithReaders(1),
		dnhunter.WithTruth(in.Truth),
		dnhunter.WithResolver(dnhunter.ResolverConfig{ClistSize: w.Clist}),
	}
	if w.ClientNets {
		opts = append(opts, dnhunter.WithFlows(dnhunter.FlowsConfig{ClientNets: clientNets}))
	}
	if sink != nil {
		opts = append(opts, dnhunter.WithSink(sink))
	}
	return opts
}
