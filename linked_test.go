package dnhunter

// The production gate: every function body in the module (outside the
// benchmark module, outside tests) must be linked by some binary. Code a
// binary never runs belongs in a _test.go file or nowhere.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// nmSymbol turns one `go tool nm` line into the key declaredFuncs uses:
// text symbols only, generic instantiation brackets stripped and method
// receivers written without `(*` `)`, so `swiss.(*Slab[go.shape…]).At`
// and a value method's pointer wrapper both name their declaration.
func nmSymbol(line string) (string, bool) {
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) != 3 || (parts[1] != "T" && parts[1] != "t") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range parts[2] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.Replace(b.String(), "(*", "", 1)
	return strings.Replace(s, ").", ".", 1), true
}

// addLinked records the text symbols of one binary's `go tool nm` output.
// Package main symbols are keyed by the binary's name, so a main function
// counts only for its own binary.
func addLinked(linked map[string]bool, binary, nm string) {
	for _, line := range strings.Split(nm, "\n") {
		sym, ok := nmSymbol(line)
		if !ok {
			continue
		}
		if strings.HasPrefix(sym, "main.") {
			sym = binary + " " + sym
		}
		linked[sym] = true
	}
}

// declaredFuncs maps each function body under root to its symbol key and
// "file:line" position. Package main symbols carry their binary's name as
// a prefix ("dnhunter main.runServe"), so they match per binary.
func declaredFuncs(t *testing.T, root string) map[string]string {
	fset := token.NewFileSet()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := filepath.ToSlash(filepath.Join("repro", dir))
		if f.Name.Name == "main" {
			pkg = filepath.Base(dir) + " main" // go build names the binary after its directory
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key, recv := fn.Name.Name, ""
			if fn.Recv != nil {
				// "*Slab[T]" → "Slab", matching nmSymbol's receivers.
				recv, _, _ = strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
				key = recv + "." + key
			}
			if pkg == "repro" && fn.Name.IsExported() && (recv == "" || ast.IsExported(recv)) {
				continue // exported root API: the library's surface
			}
			out[pkg+"."+key] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestProductionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	bin := t.TempDir()
	build := func(dir string, pkgs ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + "/"}, pkgs...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
		}
	}
	build(".", "./cmd/...", "./examples/...")
	build("benchmark", ".")
	linked := map[string]bool{}
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		addLinked(linked, e.Name(), string(out))
	}
	var unlinked []string
	for key, pos := range declaredFuncs(t, ".") {
		if !linked[key] {
			unlinked = append(unlinked, pos+": "+key)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no binary links %s", u)
	}
}

// TestNMSymbolKeys runs the gate's nm parsing over lines captured from
// the dnhunter and analyzer binaries.
func TestNMSymbolKeys(t *testing.T) {
	const dnhunter = `  557500 T repro/internal/swiss.(*Slab[go.shape.struct { FQDN string; At time.Duration; repro/internal/resolver.refs uint32; repro/internal/resolver.names uint32; Used bool }]).At
  52f540 T repro/internal/flows.(*recency[go.shape.struct { repro/internal/flows.classified bool; repro/internal/flows.inspected bool; repro/internal/flows.rec repro/internal/flows.Record; repro/internal/flows.c2sPrefix []uint8; repro/internal/flows.s2cPrefix []uint8 }]).find
  530960 T repro/internal/flows.(*L7Proto).String
  669da0 T main.(*traceFlag).Set
  669fe0 T main.main
  66af00 T main.max64
  7a1e10 R go:itab.*main.traceFlag,flag.Value
  981748 D runtime.MemProfileRate`
	const analyzer = `  4de600 T main.main
  4df140 T main.main.func1`
	linked := map[string]bool{}
	addLinked(linked, "dnhunter", dnhunter)
	addLinked(linked, "analyzer", analyzer)
	for _, key := range []string{
		"repro/internal/swiss.Slab.At",
		"repro/internal/flows.recency.find",
		"repro/internal/flows.L7Proto.String", // pointer wrapper of a value method
		"dnhunter main.traceFlag.Set",
		"dnhunter main.main",
		"dnhunter main.max64",
		"analyzer main.main",
		"analyzer main.main.func1",
	} {
		if !linked[key] {
			t.Errorf("%q not linked", key)
		}
	}
	for _, key := range []string{"main.main", "analyzer main.max64", "runtime.MemProfileRate"} {
		if linked[key] {
			t.Errorf("%q linked", key)
		}
	}
	if len(linked) != 8 {
		t.Errorf("linked = %v, want the 8 text symbols", linked)
	}
}
