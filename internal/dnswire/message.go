package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// Type is a DNS RR type.
type Type uint16

// RR types understood by the codec.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeANY   Type = 255
)

// String names the common types.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSRV:
		return "SRV"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN matters in practice.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by this codebase.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
)

// Header is the fixed 12-byte DNS header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Record is one resource record. Exactly one of the typed RDATA fields is
// meaningful depending on Type; unknown types round-trip through Data.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	// A / AAAA
	Addr netip.Addr
	// CNAME / NS / PTR target
	Target string
	// MX
	Pref uint16
	// TXT carries the record's character-strings. Unpack leaves it nil and
	// keeps the raw RDATA in Data instead — most sniffed TXT records are
	// discarded unread, so the strings are only materialized on demand via
	// TXTStrings. Pack serializes TXT when set, else Data verbatim.
	TXT []string
	// SRV
	Priority, Weight, Port uint16
	// Data carries RDATA verbatim for types the codec does not model (and
	// for TXT, see above). After Unpack it aliases the message buffer and
	// is valid until the next Unpack; copy before retaining.
	Data []byte
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

// Message is a whole DNS message. The zero value is ready to use; reusing
// one Message across Unpack calls reuses its section slices and name
// buffer, making steady-state decoding allocation-free. Attach a (per
// pipeline shard) Interner with SetInterner to also deduplicate the name
// strings themselves.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record

	// scratch is the reusable name-decode buffer; names are decoded into it
	// and then converted to strings (through the interner when set).
	scratch []byte
	intern  *Interner
	// memo holds the names this Unpack decoded, so a compression pointer
	// to one reuses its string.
	memo nameMemo
}

// SetInterner attaches an intern table used to deduplicate name strings
// decoded by Unpack. Interned strings outlive the message; the interner is
// typically owned by the pipeline shard that owns the Message.
func (m *Message) SetInterner(in *Interner) { m.intern = in }

// internName converts the scratch-decoded name bytes to a string, through
// the intern table when one is attached.
func (m *Message) internName(b []byte) string {
	if m.intern != nil {
		return m.intern.Intern(b)
	}
	return string(b)
}

// readNameAt decodes the name at off into the reusable scratch buffer and
// returns the interned string plus the caller-side end offset. A name that
// is only a pointer to a name this message already decoded (every answer
// owner of the usual response, 0xc00c) is that name's string: no copy and
// no intern probe.
func (m *Message) readNameAt(msg []byte, off int) (string, int, error) {
	if off+1 < len(msg) && msg[off]&0xc0 == 0xc0 {
		ptr := int(msg[off]&0x3f)<<8 | int(msg[off+1])
		if e := m.memo.at(ptr); e != nil && ptr < off && e.hops < maxHops {
			m.memo.add(off, e.hops+1, e.total, e.name)
			return e.name, off + 2, nil
		}
	}
	b, end, hops, total, err := appendNameAt(msg, off, m.scratch[:0], &m.memo)
	if err != nil {
		return "", 0, err
	}
	m.scratch = b[:0]
	name := m.internName(b)
	m.memo.add(off, hops, total, name)
	return name, end, nil
}

// TTLDuration converts an RR TTL to a duration.
func TTLDuration(ttl uint32) time.Duration { return time.Duration(ttl) * time.Second }

// Pack serializes the message with name compression, appending to buf
// (which may be nil).
func (m *Message) Pack(buf []byte) ([]byte, error) {
	start := len(buf)
	table := make(map[string]int, 8)
	buf = append(buf, make([]byte, 12)...)
	hdr := buf[start : start+12]
	binary.BigEndian.PutUint16(hdr[0:2], m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xf) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xf)
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(hdr[8:10], uint16(len(m.Authorities)))
	binary.BigEndian.PutUint16(hdr[10:12], uint16(len(m.Additionals)))

	var err error
	for _, q := range m.Questions {
		buf, err = appendName(buf, strings.ToLower(q.Name), table)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			buf, err = appendRecord(buf, &sec[i], table)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendRecord(buf []byte, r *Record, table map[string]int) ([]byte, error) {
	var err error
	buf, err = appendName(buf, strings.ToLower(r.Name), table)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Type))
	class := r.Class
	if class == 0 {
		class = ClassIN
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(class))
	buf = binary.BigEndian.AppendUint32(buf, r.TTL)
	// Reserve the RDLENGTH slot, then write RDATA and patch.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	switch r.Type {
	case TypeA:
		if !r.Addr.Is4() {
			return nil, fmt.Errorf("%w: A record with non-IPv4 address %v", ErrBadRecord, r.Addr)
		}
		a := r.Addr.As4()
		buf = append(buf, a[:]...)
	case TypeAAAA:
		if !r.Addr.Is6() || r.Addr.Is4In6() {
			return nil, fmt.Errorf("%w: AAAA record with non-IPv6 address %v", ErrBadRecord, r.Addr)
		}
		a := r.Addr.As16()
		buf = append(buf, a[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		// Targets are eligible for compression.
		buf, err = appendName(buf, strings.ToLower(r.Target), table)
		if err != nil {
			return nil, err
		}
	case TypeMX:
		buf = binary.BigEndian.AppendUint16(buf, r.Pref)
		buf, err = appendName(buf, strings.ToLower(r.Target), table)
		if err != nil {
			return nil, err
		}
	case TypeTXT:
		if len(r.TXT) == 0 && len(r.Data) > 0 {
			// Round-tripping a lazily decoded record: Data is already in
			// wire format (length-prefixed character-strings).
			buf = append(buf, r.Data...)
			break
		}
		for _, s := range r.TXT {
			if len(s) > 255 {
				return nil, fmt.Errorf("%w: TXT chunk too long", ErrBadRecord)
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSRV:
		buf = binary.BigEndian.AppendUint16(buf, r.Priority)
		buf = binary.BigEndian.AppendUint16(buf, r.Weight)
		buf = binary.BigEndian.AppendUint16(buf, r.Port)
		// RFC 2782: SRV target must not be compressed.
		buf, err = appendName(buf, strings.ToLower(r.Target), nil)
		if err != nil {
			return nil, err
		}
	default:
		buf = append(buf, r.Data...)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xffff {
		return nil, fmt.Errorf("%w: RDATA too long", ErrBadRecord)
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(rdlen))
	return buf, nil
}

// Pre-wrapped errors for the decode path: Unpack runs per captured packet,
// so rejecting a malformed message must not allocate. Callers match with
// errors.Is against the sentinels in name.go.
var (
	errHeaderTruncated   = fmt.Errorf("%w: header", ErrTruncatedMsg)
	errQuestionTruncated = fmt.Errorf("%w: question fixed part", ErrTruncatedMsg)
	errRRTruncated       = fmt.Errorf("%w: RR fixed part", ErrTruncatedMsg)
	errRDataTruncated    = fmt.Errorf("%w: RDATA", ErrTruncatedMsg)
	errBadALen           = fmt.Errorf("%w: bad A RDLENGTH", ErrBadRecord)
	errBadAAAALen        = fmt.Errorf("%w: bad AAAA RDLENGTH", ErrBadRecord)
	errBadMXLen          = fmt.Errorf("%w: bad MX RDLENGTH", ErrBadRecord)
	errBadTXTChunk       = fmt.Errorf("%w: TXT chunk", ErrBadRecord)
	errBadSRVLen         = fmt.Errorf("%w: bad SRV RDLENGTH", ErrBadRecord)
)

// Unpack parses a whole DNS message.
func (m *Message) Unpack(msg []byte) error {
	if len(msg) < 12 {
		return errHeaderTruncated
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
	m.memo.n = 0
	m.Questions = m.Questions[:0]
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = m.readNameAt(msg, off)
		if err != nil {
			return err
		}
		if off+4 > len(msg) {
			return errQuestionTruncated
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	m.Answers, off, err = m.readRecords(msg, off, an, m.Answers[:0])
	if err != nil {
		return err
	}
	m.Authorities, off, err = m.readRecords(msg, off, ns, m.Authorities[:0])
	if err != nil {
		return err
	}
	m.Additionals, _, err = m.readRecords(msg, off, ar, m.Additionals[:0])
	return err
}

func (m *Message) readRecords(msg []byte, off, n int, dst []Record) ([]Record, int, error) {
	var err error
	for i := 0; i < n; i++ {
		var r Record
		r.Name, off, err = m.readNameAt(msg, off)
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
			var a [4]byte
			copy(a[:], rdata)
			r.Addr = netip.AddrFrom4(a)
		case TypeAAAA:
			if rdlen != 16 {
				return dst, off, errBadAAAALen
			}
			var a [16]byte
			copy(a[:], rdata)
			r.Addr = netip.AddrFrom16(a)
		case TypeCNAME, TypeNS, TypePTR:
			r.Target, _, err = m.readNameAt(msg, off)
			if err != nil {
				return dst, off, err
			}
		case TypeMX:
			if rdlen < 3 {
				return dst, off, errBadMXLen
			}
			r.Pref = binary.BigEndian.Uint16(rdata[0:2])
			r.Target, _, err = m.readNameAt(msg, off+2)
			if err != nil {
				return dst, off, err
			}
		case TypeTXT:
			// Validate the chunk structure but defer string materialization
			// to TXTStrings: the sniffer discards most TXT records unread.
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
			r.Target, _, err = m.readNameAt(msg, off+6)
			if err != nil {
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

// AnswerAddrs returns the A/AAAA addresses in the answer section, following
// the common CDN pattern where CNAME chains terminate in address records.
// This is exactly the "answer list" the paper's DNS Resolver stores.
func (m *Message) AnswerAddrs() []netip.Addr {
	return m.AppendAnswerAddrs(nil)
}

// AppendAnswerAddrs appends the answer section's A/AAAA addresses to dst
// and returns the extended slice. Passing a reused dst[:0] keeps the
// sniffer's per-response address gathering allocation-free.
func (m *Message) AppendAnswerAddrs(dst []netip.Addr) []netip.Addr {
	for i := range m.Answers {
		r := &m.Answers[i]
		if (r.Type == TypeA || r.Type == TypeAAAA) && r.Addr.IsValid() {
			dst = append(dst, r.Addr)
		}
	}
	return dst
}

// QueriedName returns the lowercased name of the first question, or "".
// Unpack already lowercases names, so for decoded messages this returns the
// question string as-is without allocating.
func (m *Message) QueriedName() string {
	if len(m.Questions) == 0 {
		return ""
	}
	return strings.ToLower(m.Questions[0].Name)
}

// NewResponse builds a response for the single question (name, qtype) with
// the given answer records, the usual shape the synthesizer's LDNS emits.
func NewResponse(id uint16, name string, qtype Type, answers []Record) *Message {
	return &Message{
		Header: Header{
			ID:                 id,
			Response:           true,
			RecursionDesired:   true,
			RecursionAvailable: true,
		},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
		Answers:   answers,
	}
}

// NewQuery builds a recursive query for (name, qtype).
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}
