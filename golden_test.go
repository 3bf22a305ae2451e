package dnhunter

// Output digests pinned to testdata/golden.txt: one synthetic EU1-FTTH
// trace through Engine.Run over a grid of shard counts, Clist sizes and
// history depths, and every experiments.All entry at scale 0.2, seed 1
// (what `experiments -scale 0.2 -seed 1` prints). A change that means to keep every output byte-identical
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
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests runs the grid and the experiments and compares each
// cell's digests with testdata/golden.txt. Every cell's CSV is digested in the engine's own row
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
	s := experiments.NewSuite(goldenExpScale, goldenExpSeed)
	for _, e := range experiments.All {
		r := e.Run(s)
		if r.Err != nil {
			t.Errorf("experiments/%s: %v", e.ID, r.Err)
		}
		lines = append(lines, experimentLine(e.ID, r))
		actual["experiments_"+strings.NewReplacer("/", "_", ":", "_").Replace(e.ID)+".txt"] = []byte(r.Text)
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
