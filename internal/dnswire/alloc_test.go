package dnswire

import (
	"net/netip"
	"testing"
	"unsafe"

	"repro/internal/names"
)

// Steady-state DNS decoding must be allocation-free: one reused Message
// decodes into its own section slices and name scratch buffer, and the
// interner hands back previously seen name strings without materializing
// new ones.

func aRecordResponse(t *testing.T) []byte {
	t.Helper()
	m := NewResponse(77, "cdn7.EXAMPLE.com", TypeA, []Record{
		{Name: "cdn7.example.com", Type: TypeCNAME, TTL: 30, Target: "edge.cdn.example.net"},
		{Name: "edge.cdn.example.net", Type: TypeA, TTL: 30, Addr: netip.MustParseAddr("192.0.2.10")},
		{Name: "edge.cdn.example.net", Type: TypeA, TTL: 30, Addr: netip.MustParseAddr("192.0.2.11")},
	})
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestUnpackARecordZeroAlloc(t *testing.T) {
	wire := aRecordResponse(t)
	var m Message
	m.SetInterner(NewInterner(0))
	// Warm up: first decode interns the names and sizes the scratch buffer
	// and section slices.
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	addrs := make([]netip.Addr, 0, 8)
	if n := testing.AllocsPerRun(1000, func() {
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		addrs = m.AppendAnswerAddrs(addrs[:0])
		if len(addrs) != 2 || m.QueriedName() != "cdn7.example.com" {
			t.Fatal("bad decode")
		}
	}); n != 0 {
		t.Fatalf("steady-state A-record decode allocates %v/op, want 0", n)
	}
}

// TestUnpackNamesTable: with a name table attached, Unpack files every name
// in it and names the QNAME by ID; the decoded strings are the table's, an
// answer owner that points at the QNAME is the QNAME's string, and a warm
// decode allocates nothing.
func TestUnpackNamesTable(t *testing.T) {
	wire := aRecordResponse(t)
	nt := names.New()
	var m Message
	m.SetNames(nt)
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	q := m.QuestionID()
	if nt.Str(q) != "cdn7.example.com" || m.Questions[0].Name != nt.Str(q) ||
		unsafe.StringData(m.Answers[0].Name) != unsafe.StringData(nt.Str(q)) {
		t.Fatalf("QNAME ID %d spells %q; question %q", q, nt.Str(q), m.Questions[0].Name)
	}
	target := nt.ID("edge.cdn.example.net")
	if unsafe.StringData(m.Answers[0].Target) != unsafe.StringData(nt.Str(target)) || nt.End() != 3 {
		t.Fatalf("CNAME target %q is not the table's (%d names filed)", m.Answers[0].Target, nt.End()-1)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := m.Unpack(wire); err != nil || m.QuestionID() != q {
			t.Fatal("bad decode")
		}
	}); n != 0 {
		t.Fatalf("steady-state decode into a name table allocates %v/op, want 0", n)
	}
	var query Message
	if err := query.Unpack(wire); err != nil || query.QuestionID() != 0 {
		t.Fatalf("without a table QuestionID = %d", query.QuestionID())
	}
}

func TestUnpackTXTZeroAlloc(t *testing.T) {
	m := NewResponse(3, "example.com", TypeTXT, []Record{
		{Name: "example.com", Type: TypeTXT, TTL: 60, TXT: []string{"v=spf1 -all", "chunk two"}},
	})
	wire, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec Message
	dec.SetInterner(NewInterner(0))
	if err := dec.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	// TXT decoding is lazy: unpacking (and discarding) the record must not
	// allocate per character-string.
	if n := testing.AllocsPerRun(1000, func() {
		if err := dec.Unpack(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state TXT decode allocates %v/op, want 0", n)
	}
}

func TestInternerSteadyState(t *testing.T) {
	in := NewInterner(4)
	a := in.Intern([]byte("example.com"))
	if got := in.Intern([]byte("example.com")); got != a {
		t.Fatal("intern miss on repeat")
	}
	if n := testing.AllocsPerRun(1000, func() {
		in.Intern([]byte("example.com"))
	}); n != 0 {
		t.Fatalf("interner hit allocates %v/op, want 0", n)
	}
	// Exceeding the bound resets instead of growing without limit.
	for i := 0; i < 16; i++ {
		in.Intern([]byte{byte('a' + i), '.', 'c', 'o', 'm'})
	}
	if in.Len() > 4 {
		t.Fatalf("interner grew past bound: %d", in.Len())
	}
	if in.Resets == 0 {
		t.Fatal("expected resets after overflow")
	}
}
