package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: every numeric flag's bound rejects the first value past
// it and accepts the edge, in the serve flag set (a superset of batch's).
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want string // "" accepts
	}{
		{"-clist=0", "-clist 0: must be at least 1"},
		{"-clist=-5", "-clist -5: must be at least 1"},
		{"-clist=1", ""},
		{"-shards=-2", "-shards -2: must be at least -1 (one per CPU)"},
		{"-shards=-1", ""},
		{"-loop=-1", "-loop -1: must be at least 0 (forever)"},
		{"-loop=0", ""},
		{"-window=0s", "-window 0s: must be positive"},
		{"-window=-1m", "-window -1m0s: must be positive"},
		{"-window=1ns", ""},
		{"-speedup=-0.5", "-speedup -0.5: must be at least 0 (full speed)"},
		{"-speedup=0", ""},
		{"-source-restarts=-1", "-source-restarts -1: must be at least 0 (no supervision)"},
		{"-source-restarts=0", ""},
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("clist", 1<<20, "")
		fs.Int("shards", 1, "")
		fs.Int("loop", 1, "")
		fs.Duration("window", 5*time.Minute, "")
		fs.Float64("speedup", 0, "")
		fs.Int("source-restarts", 0, "")
		if err := fs.Parse([]string{tc.arg}); err != nil {
			t.Fatalf("%s: %v", tc.arg, err)
		}
		err := checkFlags(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s rejected: %v", tc.arg, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: err = %v, want %q", tc.arg, err, tc.want)
		}
	}
}

// TestCheckFlagsBatch: the batch flag set defines only some bounded flags;
// the rest are skipped, and the defaults pass.
func TestCheckFlagsBatch(t *testing.T) {
	fs := flag.NewFlagSet("dnhunter", flag.ContinueOnError)
	fs.Int("shards", 1, "")
	fs.Int("clist", 1<<20, "")
	if err := checkFlags(fs); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := fs.Parse([]string{"-shards", "-3"}); err != nil {
		t.Fatal(err)
	}
	if err := checkFlags(fs); err == nil || !strings.HasPrefix(err.Error(), "-shards -3:") {
		t.Fatalf("err = %v", err)
	}
}
