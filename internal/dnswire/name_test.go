package dnswire

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"strings"
	"testing"
)

// appendNameSplit is the name encoder appendName replaced, kept as its
// oracle: it keys the compression table by strings.Join of the label
// suffixes strings.Split returns.
func appendNameSplit(msg []byte, name string, table map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(msg, 0), nil
	}
	if len(name) > maxNameLen-2 {
		return msg, fmt.Errorf("%w: name too long (%d)", ErrBadName, len(name))
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if table != nil {
			if off, ok := table[suffix]; ok && off < 0x3fff {
				return append(msg, 0xc0|byte(off>>8), byte(off)), nil
			}
			if len(msg) < 0x3fff {
				table[suffix] = len(msg)
			}
		}
		label := labels[i]
		if label == "" || len(label) > maxLabelLen {
			return msg, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
	}
	return append(msg, 0), nil
}

// randomName draws a dotted name from a small alphabet, so suffixes
// repeat across names, with empty labels, 63- and 64-byte labels and up
// to two trailing dots mixed in.
func randomName(r *rand.Rand) string {
	var b strings.Builder
	n := 1 + r.IntN(5)
	for i := range n {
		if i > 0 {
			b.WriteByte('.')
		}
		switch k := r.IntN(20); {
		case k == 0: // empty label
		case k == 1:
			b.WriteString(strings.Repeat("x", 63))
		case k == 2:
			b.WriteString(strings.Repeat("y", 64))
		default:
			for range 1 + r.IntN(3) {
				b.WriteByte("abc"[r.IntN(3)])
			}
		}
	}
	b.WriteString([]string{"", "", "", ".", ".."}[r.IntN(5)])
	return b.String()
}

// TestAppendNameMatchesSplitEncoder: appendName and the Split/Join encoder
// it replaced write the same bytes, return the same error and leave the
// same compression table, name after name through one message. Each
// message starts at a random offset up to 0x4400, so suffixes are filed
// both below and past the 0x3fff pointer limit.
func TestAppendNameMatchesSplitEncoder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	past := 0
	for msgs := 0; msgs < 400; msgs++ {
		pad := make([]byte, r.IntN(0x4400))
		got, want := pad, append([]byte(nil), pad...)
		gotTab, wantTab := map[string]int{}, map[string]int{}
		if r.IntN(8) == 0 {
			gotTab, wantTab = nil, nil
		}
		for range 1 + r.IntN(20) {
			name := randomName(r)
			g, gerr := appendName(got, name, gotTab)
			w, werr := appendNameSplit(want, name, wantTab)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%q: error %v, oracle %v", name, gerr, werr)
			}
			if string(g) != string(w) {
				t.Fatalf("%q at offset %d: wrote % x, oracle % x", name, len(got), g[len(got):], w[len(want):])
			}
			if !maps.Equal(gotTab, wantTab) {
				t.Fatalf("%q: compression tables differ:\n got  %v\n want %v", name, gotTab, wantTab)
			}
			if gerr == nil {
				got, want = g, w
			}
			if len(got) >= 0x3fff {
				past++
			}
		}
	}
	if past == 0 {
		t.Fatal("no name was written past offset 0x3fff")
	}
}
