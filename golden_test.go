package dnhunter

// Output digests pinned to testdata/golden.txt: one synthetic EU1-FTTH
// trace through Engine.Run over a grid of shard counts, Clist sizes and
// history depths; the statistics the dnhunter command prints for one grid
// cell; the same trace through Server.Serve (drain checkpoints, their
// restore and rewrite, and window CSVs); every experiments.All entry at
// scale 0.2, seed 1 (what `experiments -scale 0.2 -seed 1` prints); and the
// bytes of every named scenario's trace. A change that means to keep every output byte-identical
// (a performance change, a refactor) must pass this unchanged; a change
// that moves a digest regenerates the file with
//
//	go test -run TestGoldenDigests -update .
//
// and names each moved cell, with its reason, in its change notes.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netio"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current outputs")

const goldenPath = "testdata/golden.txt"

// goldenCell is one point of the digest grid.
type goldenCell struct {
	shards, clist, history int
}

func (c goldenCell) name() string {
	return fmt.Sprintf("shards=%d/clist=%d/history=%d", c.shards, c.clist, c.history)
}

// goldenOutputs is what a cell produces: the flow CSV in the engine's row
// order, the formatted Stats, and the row and labeled counts.
type goldenOutputs struct {
	csv, stats    []byte
	rows, labeled int
}

// line renders the cell's golden.txt line.
func (o goldenOutputs) line(name string) string {
	return fmt.Sprintf("%s csv=%s stats=%s rows=%d labeled=%d",
		name, sha256Hex(o.csv), sha256Hex(o.stats), o.rows, o.labeled)
}

// Scale and seed of the experiments cells.
const (
	goldenExpScale = 0.2
	goldenExpSeed  = 1
)

// experimentLine renders one experiment's golden.txt line: the digests of
// its text and of its metrics, one "name value" line each.
func experimentLine(id string, r experiments.Report) string {
	var m bytes.Buffer
	for _, x := range r.Metrics {
		fmt.Fprintf(&m, "%s %v\n", x.Name, x.Value)
	}
	return fmt.Sprintf("experiments/%s text=%s metrics=%s", id, sha256Hex([]byte(r.Text)), sha256Hex(m.Bytes()))
}

// Scale and seed of the trace cells.
const (
	goldenTraceScale = 0.25
	goldenTraceSeed  = 1
)

// goldenTraceScenarios lists the trace cells: the five Table 1 captures,
// DNS-CHURN and the three TRIVANTAGE vantages, each named as its cell.
func goldenTraceScenarios() (names []string, scs []synth.Scenario) {
	for _, name := range append(slices.Clone(synth.ScenarioNames), synth.NameDNSChurn) {
		names = append(names, name)
		scs = append(scs, synth.NamedScenario(name, goldenTraceScale, goldenTraceSeed))
	}
	for _, sc := range synth.TriVantageScenarios(goldenTraceScale, goldenTraceSeed) {
		names = append(names, synth.NameTriVantage+"/"+sc.Name)
		scs = append(scs, sc)
	}
	return names, scs
}

// traceLine renders one trace's golden.txt line: the digest of every
// packet's (timestamp, length, bytes) in trace order, the digest of Truth
// in sorted key order, and the packet, flow and DNS-response counts. Ties
// in timestamp are common, so the packet digest also pins their order.
func traceLine(name string, tr *synth.Trace) string {
	h := sha256.New()
	var hdr [12]byte
	for _, p := range tr.Packets {
		binary.LittleEndian.PutUint64(hdr[:8], uint64(p.Timestamp))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Data)))
		h.Write(hdr[:])
		h.Write(p.Data)
	}
	truth := make([]string, 0, len(tr.Truth))
	for k, fqdn := range tr.Truth {
		truth = append(truth, fmt.Sprintf("%v %v %d %d %d %s\n", k.ClientIP, k.ServerIP, k.ClientPort, k.ServerPort, k.Proto, fqdn))
	}
	slices.Sort(truth)
	return fmt.Sprintf("trace/%s packets=%s truth=%s pkts=%d flows=%d dns=%d", name,
		hex.EncodeToString(h.Sum(nil)), sha256Hex([]byte(strings.Join(truth, ""))),
		len(tr.Packets), tr.Flows, tr.DNSResponses)
}

// cliCell is the grid cell the cli/stats cell runs the dnhunter command on.
var cliCell = goldenCell{shards: 1, clist: 4096, history: 0}

// cliLine runs the dnhunter command over tr, written to a pcap (which keeps
// timestamps to the microsecond), at cliCell's settings and renders the
// cli/stats cell: the digest of the statistics it prints, every line but
// the last ("wrote <path> ...").
func cliLine(t *testing.T, tr *Trace, actual map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	var pcap bytes.Buffer
	pw := netio.NewWriter(&pcap)
	for _, p := range tr.Packets {
		if err := pw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	pcapPath, csvPath := filepath.Join(dir, "trace.pcap"), filepath.Join(dir, "flows.csv")
	if err := os.WriteFile(pcapPath, pcap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "dnhunter")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dnhunter").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/dnhunter: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-pcap", pcapPath, "-out", csvPath, "-shards", fmt.Sprint(cliCell.shards),
		"-clist", fmt.Sprint(cliCell.clist), "-history", fmt.Sprint(cliCell.history)).Output()
	if err != nil {
		t.Fatalf("dnhunter: %v", err)
	}
	text := out[:bytes.LastIndex(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))+1]
	actual["cli_stats.txt"] = text
	return fmt.Sprintf("cli/stats text=%s", sha256Hex(text))
}

// serveLines runs tr through Server.Serve and renders the serve cells:
//   - the drain checkpoint at shards {1, 4} x Clist 4096 x history {0, 2},
//     and at shards 4 on a millisecond clock, each followed by its restore
//     in a run over no packets and the rewrite at that run's drain;
//   - the window CSVs: every window's WriteCSV bytes concatenated, at
//     shards=1 and at shards=2, where each window holds the shards' parts
//     in shard order.
//
// Every cell's output is added to actual under its file name.
func serveLines(t *testing.T, tr *Trace, actual map[string][]byte) []string {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	var lines []string
	// checkpoint drains packets into a fresh checkpoint, then restores it
	// in a run over no packets and digests the rewrite.
	checkpoint := func(name string, shards, history int, packets []Packet) {
		t.Helper()
		path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".ckpt")
		eng := NewEngine(WithShards(shards), WithResolver(ResolverConfig{ClistSize: 4096, History: history}))
		for _, rewrite := range []bool{false, true} {
			var src PacketSource = NewLoopSource(packets, 0, 1)
			cell := name
			if rewrite {
				src, cell = NewLoopSource(nil, 0, 1), name+"/rewritten"
			}
			rep, err := eng.Server(ServeConfig{CheckpointPath: path}).Serve(ctx, src)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			lines = append(lines, fmt.Sprintf("%s ckpt=%s restored=%d entries=%d",
				cell, sha256Hex(b), rep.RestoredEntries, rep.CheckpointedEntries))
			actual[strings.ReplaceAll(cell, "/", "_")+".ckpt"] = b
		}
	}
	for _, shards := range []int{1, 4} {
		for _, history := range []int{0, 2} {
			checkpoint(fmt.Sprintf("serve/checkpoint/shards=%d/clist=4096/history=%d", shards, history), shards, history, tr.Packets)
		}
	}
	// The synthetic clock has nanosecond resolution, so no two clients'
	// DNS responses share a timestamp and the checkpoint merge never meets
	// a tie across shards. A capture clock that ticks in whole
	// milliseconds makes such ties, so this cell pins the tie-break.
	coarse := make([]Packet, len(tr.Packets))
	for i, p := range tr.Packets {
		coarse[i] = Packet{Timestamp: p.Timestamp.Truncate(time.Millisecond), Data: p.Data}
	}
	checkpoint("serve/checkpoint/shards=4/clist=4096/history=0/clock=1ms", 4, 0, coarse)
	for _, shards := range []int{1, 2} {
		name := fmt.Sprintf("serve/windows/shards=%d", shards)
		var csv bytes.Buffer
		rep, err := NewEngine(WithShards(shards)).Server(ServeConfig{
			FlushWindow: func(w Window) error { return w.DB.WriteCSV(&csv) },
		}).Serve(ctx, tr.Source())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := csv.Bytes()
		lines = append(lines, fmt.Sprintf("%s csv=%s windows=%d rows=%d", name, sha256Hex(out), rep.Windows, rep.Stats.Flows))
		actual[strings.ReplaceAll(name, "/", "_")+".csv"] = out
	}
	return lines
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests runs the grid, the serve cells, the experiments and
// the trace cells and compares each cell's digests with
// testdata/golden.txt. Every cell's CSV is digested in the engine's own row
// order: at a fixed shard count the order is recency-driven per shard and
// merged deterministically, so it is stable run to run (the test checks
// that by running the first sharded cell twice).
func TestGoldenDigests(t *testing.T) {
	tr := GenerateTrace("EU1-FTTH", 3, 4)
	var cells []goldenCell
	for _, shards := range []int{1, 4} {
		for _, clist := range []int{1 << 20, 4096, 128} {
			for _, history := range []int{0, 2} {
				cells = append(cells, goldenCell{shards, clist, history})
			}
		}
	}

	run := func(c goldenCell) goldenOutputs {
		t.Helper()
		eng := NewEngine(WithShards(c.shards), WithResolver(ResolverConfig{ClistSize: c.clist, History: c.history}))
		res, err := eng.Run(context.Background(), tr.Source())
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		var csv bytes.Buffer
		if err := res.DB.WriteCSV(&csv); err != nil {
			t.Fatalf("%s: WriteCSV: %v", c.name(), err)
		}
		stats, err := json.MarshalIndent(res.Stats, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutputs{
			csv:     csv.Bytes(),
			stats:   append(stats, '\n'),
			rows:    res.DB.Len(),
			labeled: int(res.Stats.LabeledFlows),
		}
	}

	got := make([]goldenOutputs, len(cells))
	var lines []string
	// actual holds every cell's outputs by file name, written out on failure.
	actual := map[string][]byte{}
	for i, c := range cells {
		got[i] = run(c)
		lines = append(lines, got[i].line(c.name()))
		base := strings.ReplaceAll(c.name(), "/", "_")
		actual[base+".csv"] = got[i].csv
		actual[base+".stats.json"] = got[i].stats
	}
	// Row order at shards > 1 must not depend on scheduling, or the digests
	// below would flake.
	for i, c := range cells {
		if c.shards > 1 {
			if again := run(c); !bytes.Equal(again.csv, got[i].csv) {
				t.Fatalf("%s: CSV row order differs between two runs", c.name())
			}
			break
		}
	}
	lines = append(lines, cliLine(t, tr, actual))
	lines = append(lines, serveLines(t, tr, actual)...)
	s := experiments.NewSuite(goldenExpScale, goldenExpSeed)
	for _, e := range experiments.All {
		r := e.Run(s)
		if r.Err != nil {
			t.Errorf("experiments/%s: %v", e.ID, r.Err)
		}
		lines = append(lines, experimentLine(e.ID, r))
		actual["experiments_"+strings.NewReplacer("/", "_", ":", "_").Replace(e.ID)+".txt"] = []byte(r.Text)
	}
	names, scs := goldenTraceScenarios()
	for i, sc := range scs {
		lines = append(lines, traceLine(names[i], synth.Generate(sc)))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(lines), goldenPath)
		return
	}

	want := readGolden(t)
	var failed bool
	for _, line := range lines {
		name, _, _ := strings.Cut(line, " ")
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no line in %s (regenerate with -update)", name, goldenPath)
			failed = true
			continue
		}
		if line != w {
			t.Errorf("%s moved:\n got  %s\n want %s", name, line, w)
			failed = true
		}
	}
	if len(want) != len(lines) {
		t.Errorf("%s holds %d cells, the test has %d", goldenPath, len(want), len(lines))
	}
	if failed {
		dir := t.TempDir()
		for name, b := range actual {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("actual outputs written to %s", dir)
	}
}

// readGolden parses golden.txt into cell name → full line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, _, ok := strings.Cut(line, " "); ok {
			want[name] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
