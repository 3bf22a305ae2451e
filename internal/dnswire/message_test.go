package dnswire

import (
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	raw, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestHeaderRoundTrip(t *testing.T) {
	m := &Message{Header: Header{
		ID: 0xbeef, Response: true, Opcode: 2, Authoritative: true,
		Truncated: true, RecursionDesired: true, RecursionAvailable: true,
		RCode: RCodeNXDomain,
	}}
	raw := mustPack(t, m)
	var got Message
	if err := got.Unpack(raw); err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Fatalf("header = %+v, want %+v", got.Header, m.Header)
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	ans := []Record{
		{Name: "www.example.com", Type: TypeA, TTL: 300, Addr: netip.MustParseAddr("93.184.216.34")},
		{Name: "www.example.com", Type: TypeA, TTL: 300, Addr: netip.MustParseAddr("93.184.216.35")},
	}
	m := NewResponse(42, "www.example.com", TypeA, ans)
	raw := mustPack(t, m)

	var got Message
	if err := got.Unpack(raw); err != nil {
		t.Fatal(err)
	}
	if got.QueriedName() != "www.example.com" {
		t.Fatalf("question = %q", got.QueriedName())
	}
	addrs := got.AnswerAddrs()
	if len(addrs) != 2 || addrs[0] != ans[0].Addr || addrs[1] != ans[1].Addr {
		t.Fatalf("addrs = %v", addrs)
	}
	if got.Answers[0].TTL != 300 {
		t.Fatalf("TTL = %d", got.Answers[0].TTL)
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	// Repeating the same owner name must compress to pointers.
	var answers []Record
	for i := 0; i < 10; i++ {
		answers = append(answers, Record{
			Name: "static.content.cdn.example.com", Type: TypeA, TTL: 60,
			Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		})
	}
	m := NewResponse(1, "static.content.cdn.example.com", TypeA, answers)
	raw := mustPack(t, m)
	nameLen := len("static.content.cdn.example.com") + 2
	uncompressed := 12 + nameLen + 4 + 10*(nameLen+10+4)
	if len(raw) >= uncompressed {
		t.Fatalf("no compression: %d >= %d", len(raw), uncompressed)
	}
	// And it must still parse.
	var got Message
	if err := got.Unpack(raw); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 10 || got.Answers[9].Name != "static.content.cdn.example.com" {
		t.Fatalf("answers = %+v", got.Answers)
	}
}

func TestCNAMEChain(t *testing.T) {
	ans := []Record{
		{Name: "www.zynga.com", Type: TypeCNAME, TTL: 120, Target: "www.zynga.com.edgekey.net"},
		{Name: "www.zynga.com.edgekey.net", Type: TypeCNAME, TTL: 60, Target: "e1234.a.akamaiedge.net"},
		{Name: "e1234.a.akamaiedge.net", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("23.1.2.3")},
	}
	m := NewResponse(7, "www.zynga.com", TypeA, ans)
	raw := mustPack(t, m)
	var got Message
	if err := got.Unpack(raw); err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "www.zynga.com.edgekey.net" {
		t.Fatalf("cname target = %q", got.Answers[0].Target)
	}
	if addrs := got.AnswerAddrs(); len(addrs) != 1 || addrs[0] != ans[2].Addr {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestAAAARoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("2001:db8::42")
	m := NewResponse(9, "v6.example.com", TypeAAAA, []Record{
		{Name: "v6.example.com", Type: TypeAAAA, TTL: 30, Addr: addr},
	})
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Addr != addr {
		t.Fatalf("addr = %v", got.Answers[0].Addr)
	}
}

func TestPTRRoundTrip(t *testing.T) {
	m := NewResponse(3, "34.216.184.93.in-addr.arpa", TypePTR, []Record{
		{Name: "34.216.184.93.in-addr.arpa", Type: TypePTR, TTL: 3600, Target: "a93-184-216-34.deploy.akamaitechnologies.com"},
	})
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "a93-184-216-34.deploy.akamaitechnologies.com" {
		t.Fatalf("target = %q", got.Answers[0].Target)
	}
}

func TestMXTXTSRVRoundTrip(t *testing.T) {
	m := NewResponse(4, "example.com", TypeANY, []Record{
		{Name: "example.com", Type: TypeMX, TTL: 600, Pref: 10, Target: "aspmx.l.google.com"},
		{Name: "example.com", Type: TypeTXT, TTL: 600, TXT: []string{"v=spf1 -all", "second"}},
		{Name: "_sip._tcp.example.com", Type: TypeSRV, TTL: 60, Priority: 1, Weight: 5, Port: 5060, Target: "sip.example.com"},
	})
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	mx, txt, srv := got.Answers[0], got.Answers[1], got.Answers[2]
	if mx.Pref != 10 || mx.Target != "aspmx.l.google.com" {
		t.Fatalf("mx = %+v", mx)
	}
	if txt.TXT != nil {
		t.Fatalf("TXT should stay lazy after Unpack, got %+v", txt.TXT)
	}
	if s := txt.TXTStrings(); !reflect.DeepEqual(s, []string{"v=spf1 -all", "second"}) {
		t.Fatalf("txt = %+v", s)
	}
	// A lazily decoded TXT record must survive a re-Pack unchanged.
	var again Message
	if err := again.Unpack(mustPack(t, &got)); err != nil {
		t.Fatal(err)
	}
	if g := again.Answers[1].TXTStrings(); !reflect.DeepEqual(g, []string{"v=spf1 -all", "second"}) {
		t.Fatalf("re-packed txt = %+v", g)
	}
	if srv.Priority != 1 || srv.Weight != 5 || srv.Port != 5060 || srv.Target != "sip.example.com" {
		t.Fatalf("srv = %+v", srv)
	}
}

func TestUnknownTypeOpaque(t *testing.T) {
	m := NewResponse(5, "example.com", Type(99), []Record{
		{Name: "example.com", Type: Type(99), TTL: 1, Data: []byte{1, 2, 3, 4}},
	})
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers[0].Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("data = %v", got.Answers[0].Data)
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 11, Response: true},
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassIN}},
		Answers:   []Record{{Name: "example.com", Type: TypeA, TTL: 5, Addr: netip.MustParseAddr("1.2.3.4")}},
		Authorities: []Record{
			{Name: "example.com", Type: TypeNS, TTL: 5, Target: "ns1.example.com"},
		},
		Additionals: []Record{
			{Name: "ns1.example.com", Type: TypeA, TTL: 5, Addr: netip.MustParseAddr("5.6.7.8")},
		},
	}
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if len(got.Authorities) != 1 || got.Authorities[0].Target != "ns1.example.com" {
		t.Fatalf("authorities = %+v", got.Authorities)
	}
	if len(got.Additionals) != 1 || got.Additionals[0].Addr != netip.MustParseAddr("5.6.7.8") {
		t.Fatalf("additionals = %+v", got.Additionals)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	m := NewResponse(2, "WWW.Example.COM", TypeA, []Record{
		{Name: "WWW.Example.COM", Type: TypeA, TTL: 1, Addr: netip.MustParseAddr("9.9.9.9")},
	})
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if got.QueriedName() != "www.example.com" {
		t.Fatalf("name = %q", got.QueriedName())
	}
}

func TestTruncatedInputs(t *testing.T) {
	full := mustPack(t, NewResponse(1, "www.example.com", TypeA, []Record{
		{Name: "www.example.com", Type: TypeA, TTL: 1, Addr: netip.MustParseAddr("1.1.1.1")},
	}))
	for n := 0; n < len(full); n++ {
		var got Message
		if err := got.Unpack(full[:n]); err == nil {
			t.Fatalf("no error at truncation point %d", n)
		}
	}
}

func TestPointerLoopRejected(t *testing.T) {
	// Header + question whose name is a pointer to itself.
	raw := make([]byte, 12, 16)
	raw[5] = 1 // QDCOUNT=1
	raw = append(raw, 0xc0, 12)
	raw = append(raw, 0, 1, 0, 1)
	var got Message
	if err := got.Unpack(raw); !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("err = %v, want pointer loop", err)
	}
}

func TestForwardPointerRejected(t *testing.T) {
	raw := make([]byte, 12, 20)
	raw[5] = 1
	raw = append(raw, 0xc0, 40) // forward pointer
	raw = append(raw, 0, 1, 0, 1)
	var got Message
	if err := got.Unpack(raw); err == nil {
		t.Fatal("expected error for forward pointer")
	}
}

func TestOversizedLabelRejected(t *testing.T) {
	long := strings.Repeat("a", 64)
	m := NewQuery(1, long+".com", TypeA)
	if _, err := m.Pack(nil); !errors.Is(err, ErrBadName) {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizedNameRejected(t *testing.T) {
	var labels []string
	for i := 0; i < 50; i++ {
		labels = append(labels, "abcdefgh")
	}
	m := NewQuery(1, strings.Join(labels, "."), TypeA)
	if _, err := m.Pack(nil); !errors.Is(err, ErrBadName) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadARDLength(t *testing.T) {
	// A record with RDLENGTH 3.
	m := NewResponse(1, "x.com", TypeA, nil)
	raw := mustPack(t, m)
	raw[7] = 1                       // ANCOUNT=1
	raw = append(raw, 0xc0, 12)      // name ptr to question
	raw = append(raw, 0, 1, 0, 1)    // TYPE A, CLASS IN
	raw = append(raw, 0, 0, 0, 5)    // TTL
	raw = append(raw, 0, 3, 1, 2, 3) // RDLENGTH 3
	var got Message
	if err := got.Unpack(raw); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestARecordWithV6AddrRejected(t *testing.T) {
	m := NewResponse(1, "x.com", TypeA, []Record{
		{Name: "x.com", Type: TypeA, Addr: netip.MustParseAddr("::1")},
	})
	if _, err := m.Pack(nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyNameRoot(t *testing.T) {
	m := NewQuery(1, "", TypeNS)
	var got Message
	if err := got.Unpack(mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if got.QueriedName() != "" {
		t.Fatalf("name = %q", got.QueriedName())
	}
}

func TestUnpackNeverPanicsOnFuzz(t *testing.T) {
	f := func(data []byte) bool {
		var m Message
		_ = m.Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripNames(t *testing.T) {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-"
	mkLabel := func(b byte, n uint8) string {
		l := 1 + int(n)%10
		var sb strings.Builder
		for i := 0; i < l; i++ {
			sb.WriteByte(alpha[(int(b)+i)%len(alpha)])
		}
		return sb.String()
	}
	f := func(a, b byte, na, nb uint8, ttl uint32) bool {
		name := mkLabel(a, na) + "." + mkLabel(b, nb) + ".example.com"
		m := NewResponse(1, name, TypeA, []Record{
			{Name: name, Type: TypeA, TTL: ttl, Addr: netip.AddrFrom4([4]byte{1, 2, 3, 4})},
		})
		raw, err := m.Pack(nil)
		if err != nil {
			return false
		}
		var got Message
		if err := got.Unpack(raw); err != nil {
			return false
		}
		return got.QueriedName() == name && got.Answers[0].TTL == ttl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageReuseBetweenUnpacks(t *testing.T) {
	// Unpacking into the same Message must fully reset sections.
	m1 := NewResponse(1, "a.example.com", TypeA, []Record{
		{Name: "a.example.com", Type: TypeA, TTL: 1, Addr: netip.MustParseAddr("1.1.1.1")},
		{Name: "a.example.com", Type: TypeA, TTL: 1, Addr: netip.MustParseAddr("2.2.2.2")},
	})
	m2 := NewQuery(2, "b.example.com", TypeA)
	var got Message
	if err := got.Unpack(mustPack(t, m1)); err != nil {
		t.Fatal(err)
	}
	if err := got.Unpack(mustPack(t, m2)); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 0 || got.QueriedName() != "b.example.com" {
		t.Fatalf("stale state: %+v", got)
	}
}

func BenchmarkUnpackTypicalResponse(b *testing.B) {
	var answers []Record
	for i := 0; i < 8; i++ {
		answers = append(answers, Record{
			Name: "edge.cdn.example.com", Type: TypeA, TTL: 30,
			Addr: netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}),
		})
	}
	raw, err := NewResponse(1, "edge.cdn.example.com", TypeA, answers).Pack(nil)
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TXTStrings returns the record's character-strings, decoding them from the
// raw RDATA when Unpack deferred that work. The returned slice is freshly
// allocated; it does not alias the message buffer.
func (r *Record) TXTStrings() []string {
	if r.TXT != nil || r.Type != TypeTXT {
		return r.TXT
	}
	var out []string
	for p := 0; p < len(r.Data); {
		l := int(r.Data[p])
		if p+1+l > len(r.Data) {
			break // validated during Unpack; defensive for hand-built records
		}
		out = append(out, string(r.Data[p+1:p+1+l]))
		p += 1 + l
	}
	return out
}

// NewQuery builds a recursive query for (name, qtype).
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}
