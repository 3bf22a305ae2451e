package dnswire

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"unsafe"
)

// --- reference model ----------------------------------------------------------
//
// refUnpack is the decoder without the name memo: every name, pointer or
// not, is decoded label by label from the wire. FuzzUnpack holds Unpack to
// it, so the memo can change only how fast a name is produced.

func refNameAt(msg []byte, off int) (string, int, error) {
	var dst []byte
	cursor := off
	end := -1
	hops := 0
	total := 0
	for {
		if cursor >= len(msg) {
			return "", 0, errNamePastEnd
		}
		c := msg[cursor]
		switch {
		case c == 0:
			if end < 0 {
				end = cursor + 1
			}
			return string(dst), end, nil
		case c&0xc0 == 0xc0:
			if cursor+1 >= len(msg) {
				return "", 0, errDanglingPointer
			}
			ptr := int(c&0x3f)<<8 | int(msg[cursor+1])
			if end < 0 {
				end = cursor + 2
			}
			hops++
			if hops > 32 || ptr >= cursor {
				return "", 0, ErrPointerLoop
			}
			cursor = ptr
		case c&0xc0 != 0:
			return "", 0, errReservedLabel
		default:
			l := int(c)
			if cursor+1+l > len(msg) {
				return "", 0, errLabelPastEnd
			}
			total += l + 1
			if total > maxNameLen {
				return "", 0, errNameTooLong
			}
			if len(dst) > 0 {
				dst = append(dst, '.')
			}
			for _, ch := range msg[cursor+1 : cursor+1+l] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				dst = append(dst, ch)
			}
			cursor += 1 + l
		}
	}
}

func refUnpack(msg []byte) (*Message, error) {
	m := &Message{}
	if len(msg) < 12 {
		return m, errHeaderTruncated
	}
	m.Header.ID = binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = uint8(flags >> 11 & 0xf)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))
	off := 12
	var err error
	for range qd {
		var q Question
		q.Name, off, err = refNameAt(msg, off)
		if err != nil {
			return m, err
		}
		if off+4 > len(msg) {
			return m, errQuestionTruncated
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	if m.Answers, off, err = refRecords(msg, off, an); err != nil {
		return m, err
	}
	if m.Authorities, off, err = refRecords(msg, off, ns); err != nil {
		return m, err
	}
	m.Additionals, _, err = refRecords(msg, off, ar)
	return m, err
}

func refRecords(msg []byte, off, n int) ([]Record, int, error) {
	var dst []Record
	var err error
	for range n {
		var r Record
		r.Name, off, err = refNameAt(msg, off)
		if err != nil {
			return dst, off, err
		}
		if off+10 > len(msg) {
			return dst, off, errRRTruncated
		}
		r.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		r.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		r.TTL = binary.BigEndian.Uint32(msg[off+4 : off+8])
		rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
		off += 10
		if off+rdlen > len(msg) {
			return dst, off, errRDataTruncated
		}
		rdata := msg[off : off+rdlen]
		switch r.Type {
		case TypeA:
			if rdlen != 4 {
				return dst, off, errBadALen
			}
			r.Addr = netip.AddrFrom4([4]byte(rdata))
		case TypeAAAA:
			if rdlen != 16 {
				return dst, off, errBadAAAALen
			}
			r.Addr = netip.AddrFrom16([16]byte(rdata))
		case TypeCNAME, TypeNS, TypePTR:
			if r.Target, _, err = refNameAt(msg, off); err != nil {
				return dst, off, err
			}
		case TypeMX:
			if rdlen < 3 {
				return dst, off, errBadMXLen
			}
			r.Pref = binary.BigEndian.Uint16(rdata[0:2])
			if r.Target, _, err = refNameAt(msg, off+2); err != nil {
				return dst, off, err
			}
		case TypeTXT:
			for p := 0; p < rdlen; {
				l := int(rdata[p])
				if p+1+l > rdlen {
					return dst, off, errBadTXTChunk
				}
				p += 1 + l
			}
			r.Data = rdata
		case TypeSRV:
			if rdlen < 7 {
				return dst, off, errBadSRVLen
			}
			r.Priority = binary.BigEndian.Uint16(rdata[0:2])
			r.Weight = binary.BigEndian.Uint16(rdata[2:4])
			r.Port = binary.BigEndian.Uint16(rdata[4:6])
			if r.Target, _, err = refNameAt(msg, off+6); err != nil {
				return dst, off, err
			}
		default:
			r.Data = rdata
		}
		off += rdlen
		dst = append(dst, r)
	}
	return dst, off, nil
}

// --- differential check -------------------------------------------------------

// errClass names which sentinel err wraps.
func errClass(err error) string {
	for _, s := range []error{ErrTruncatedMsg, ErrBadName, ErrPointerLoop, ErrBadRecord} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "unclassified: " + err.Error()
	}
	return "ok"
}

// checkUnpackMatchesRef decodes msg with a reused Message (through an
// interner, as the sniffer does) and with the reference, and requires the
// same error class, header, names, sections and addresses.
func checkUnpackMatchesRef(t *testing.T, m *Message, msg []byte) {
	t.Helper()
	err := m.Unpack(msg)
	ref, refErr := refUnpack(msg)
	if errClass(err) != errClass(refErr) || err != refErr {
		t.Fatalf("Unpack error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	if m.Header != ref.Header {
		t.Fatalf("header %+v, reference %+v", m.Header, ref.Header)
	}
	same := func(a, b []Record) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	if len(m.Questions) != len(ref.Questions) || len(m.Questions) > 0 && !reflect.DeepEqual(m.Questions, ref.Questions) {
		t.Fatalf("questions %+v, reference %+v", m.Questions, ref.Questions)
	}
	if !same(m.Answers, ref.Answers) || !same(m.Authorities, ref.Authorities) || !same(m.Additionals, ref.Additionals) {
		t.Fatalf("sections differ:\n got %+v %+v %+v\n ref %+v %+v %+v",
			m.Answers, m.Authorities, m.Additionals, ref.Answers, ref.Authorities, ref.Additionals)
	}
	if got, want := m.AnswerAddrs(), ref.AnswerAddrs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("answer addrs %v, reference %v", got, want)
	}
}

// pointerChain builds a response whose answer owners each point at the
// previous answer's owner: answer k's name follows k+1 pointers.
func pointerChain(n int) []byte {
	msg := []byte{0, 1, 0x81, 0x80, 0, 1, 0, byte(n), 0, 0, 0, 0}
	msg = append(msg, 3, 'w', 'w', 'w', 1, 'x', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1)
	prev := 12
	for range n {
		at := len(msg)
		msg = append(msg, 0xc0|byte(prev>>8), byte(prev), 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
		prev = at
	}
	return msg
}

// labelName is n labels of length l.
func labelName(n, l int) []byte {
	var b []byte
	for range n {
		b = append(b, byte(l))
		for range l {
			b = append(b, 'a')
		}
	}
	return b
}

func unpackSeeds(t testing.TB) [][]byte {
	resp := func(m *Message) []byte {
		raw, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := netip.MustParseAddr("192.0.2.1")
	typical := resp(NewResponse(7, "www.Example.com", TypeA, []Record{
		{Name: "www.example.com", Type: TypeCNAME, TTL: 60, Target: "e1.cdn.example.net"},
		{Name: "e1.cdn.example.net", Type: TypeA, TTL: 60, Addr: a},
		{Name: "e1.cdn.example.net", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")},
		{Name: "cdn.example.net", Type: TypeMX, TTL: 60, Pref: 5, Target: "mx.cdn.example.net"},
		{Name: "example.net", Type: TypeSRV, TTL: 60, Target: "srv.example.net", Port: 443},
		{Name: "example.net", Type: TypeTXT, TTL: 60, TXT: []string{"v=1"}},
	}))
	loop := []byte{0, 1, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1}
	forward := []byte{0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, 0xc0, 18, 0, 1, 0, 1, 1, 'a', 0}
	long := append([]byte{0, 1, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0}, labelName(5, 63)...)
	long = append(long, 0, 0, 1, 0, 1)
	// Over-long only through a pointer: 4 × 63-byte labels behind a
	// 2 × 63-byte prefix.
	longPtr := append([]byte{0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0}, labelName(3, 63)...)
	longPtr = append(longPtr, 0, 0, 1, 0, 1)
	longPtr = append(longPtr, labelName(2, 63)...)
	longPtr = append(longPtr, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
	return [][]byte{
		typical,
		typical[:len(typical)-3], // truncated RDATA
		loop,
		forward,
		long,
		longPtr,
		pointerChain(3),
		pointerChain(31),
		pointerChain(40), // past the 32-hop limit
	}
}

func FuzzUnpack(f *testing.F) {
	for _, s := range unpackSeeds(f) {
		f.Add(s)
	}
	var m Message
	m.SetInterner(NewInterner(64))
	f.Fuzz(func(t *testing.T, msg []byte) {
		checkUnpackMatchesRef(t, &m, msg)
	})
}

// TestUnpackMatchesReferenceSeeds runs the FuzzUnpack seeds, plus every
// truncation of each, through plain go test runs.
func TestUnpackMatchesReferenceSeeds(t *testing.T) {
	var m Message
	m.SetInterner(NewInterner(64))
	for _, s := range unpackSeeds(t) {
		for n := range len(s) + 1 {
			checkUnpackMatchesRef(t, &m, s[:n])
		}
	}
	if err := m.Unpack(pointerChain(40)); !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("40-pointer chain: %v, want ErrPointerLoop", err)
	}
}

// TestPointerOwnersShareString pins the memo: answers whose owner is a
// pointer to the question name, directly or through earlier owners, carry
// the question's string itself.
func TestPointerOwnersShareString(t *testing.T) {
	var m Message
	if err := m.Unpack(pointerChain(3)); err != nil {
		t.Fatal(err)
	}
	q := m.Questions[0].Name
	for _, r := range m.Answers {
		if r.Name != q || unsafe.StringData(r.Name) != unsafe.StringData(q) {
			t.Fatalf("owner %q is a copy of question %q", r.Name, q)
		}
	}
}
